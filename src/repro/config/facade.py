"""The engine facade: :func:`build_engine` and :func:`adopt_config`.

:func:`build_engine` is the one front door for constructing a gradient
engine from a model and a :class:`~repro.config.ScanConfig` — it
dispatches on the model type, so experiment drivers and the bench
runner no longer hard-code engine classes.  :func:`adopt_config`
applies the engine-affecting fields of a config to an *existing*
engine — the single validation point that used to be duplicated (with
diverging exception types) across ``Trainer.__init__``'s ``executor=``
and ``sparse=`` blocks.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence, Union

from repro.config.scan_config import ScanConfig


def construction_executor(
    merged: ScanConfig, resolved: ScanConfig, executor: Any
) -> Any:
    """What an engine hands to ``set_executor`` at construction time.

    ``merged`` is the engine's config with its explicit kwargs folded
    in (a spec-string ``executor=`` among them), ``resolved`` its
    :meth:`~ScanConfig.resolve` output, and ``executor`` the raw
    ``executor=`` kwarg:

    * an explicit :class:`~repro.backend.ScanExecutor` instance → used
      verbatim (caller-owned);
    * an explicit spec — the ``executor=`` kwarg or a config field —
      → the resolved spec string: the engine builds and owns that
      pool;
    * an *ambient* spec (a surrounding :func:`configure` override, the
      environment variable, or the global default) → ``None``: the
      engine resolves the shared ambient pool at scan time — the
      block-owned scoped pool inside ``configure(executor=…)``, the
      process-wide default otherwise.  N ambient engines share one
      pool instead of leaking one each, exactly as ``executor=None``
      behaved before the configuration plane existed.
    """
    from repro.backend import ScanExecutor

    if isinstance(executor, ScanExecutor):
        return executor
    if executor is not None and not isinstance(executor, str):
        # Fail at construction instead of silently running on the
        # ambient default.
        raise TypeError(
            "executor must be a spec string, ScanExecutor, or None; "
            f"got {type(executor).__name__}"
        )
    if merged.executor is not None:
        return resolved.executor
    return None


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
    config, a spec string (``"blelloch/thread:8/sparse=auto:0.4"``), a
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
        return RNNBPPSA(model, executor=executor_instance, config=cfg)
    if isinstance(model, Sequential):
        return FeedforwardBPPSA(model, executor=executor_instance, config=cfg)
    features = getattr(model, "features", None)
    classifier = getattr(model, "classifier", None)
    if isinstance(features, Sequential) and isinstance(classifier, Sequential):
        stacked = Sequential(*(list(features) + list(classifier)))
        return FeedforwardBPPSA(stacked, executor=executor_instance, config=cfg)
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
    runs the full :meth:`ScanConfig.resolve` precedence ladder
    independently (explicit > :func:`configure` overlay > environment >
    ``defaults`` > global), so ambient overrides apply uniformly while
    per-stage specs stay authoritative.  Returns fully resolved
    configs, ready for :meth:`repro.serve.EnginePool.get_many`.
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


def adopt_config(
    engine: Any,
    config: Union[ScanConfig, str, Mapping[str, Any], None] = None,
    *,
    executor: Any = None,
    sparse: Any = None,
) -> Any:
    """Apply a config's engine-affecting fields to an existing engine.

    The shared validation path for every "retarget an engine after
    construction" site (:class:`~repro.core.Trainer`, experiment
    drivers).  ``executor`` and ``sparse`` are the legacy keyword
    overrides (spec strings, a :class:`~repro.backend.ScanExecutor`
    instance, or a :class:`~repro.scan.SparsePolicy`) and beat the
    corresponding ``config`` fields.

    Adoptable fields: ``executor`` (via ``set_executor``), ``sparse`` /
    ``densify_threshold`` (via ``set_sparse_policy``), ``algorithm`` and
    ``up_levels`` (plain attributes both engines re-read on every
    scan).  Construction-only fields (``sparse_linear_tol``,
    ``pattern_cache``) cannot be adopted and raise ``ValueError`` —
    rebuild through :func:`build_engine` instead.

    Raises ``ValueError`` when any adoptable field is set but
    ``engine`` is ``None`` (baseline BP has no scan to configure), and
    ``TypeError`` when the engine lacks the needed protocol — the same
    exception types for every field, where the old duplicated blocks
    had drifted apart.  Returns the engine.
    """
    cfg = ScanConfig.coerce(config)
    if cfg.sparse_linear_tol is not None or cfg.pattern_cache is not None:
        raise ValueError(
            "sparse_linear_tol and pattern_cache are construction-only "
            "config fields; build a new engine with repro.build_engine "
            "instead of adopting them"
        )
    if executor is None:
        executor = cfg.executor
    want_sparse = sparse is not None or (
        cfg.sparse is not None or cfg.densify_threshold is not None
    )
    want_algorithm = cfg.algorithm is not None or cfg.up_levels is not None
    if executor is None and not want_sparse and not want_algorithm:
        return engine
    if engine is None:
        raise ValueError(
            "executor=/sparse=/config= tune the scan of a BPPSA engine; "
            "pass engine= as well (baseline BP has no scan)"
        )
    if executor is not None:
        if not hasattr(engine, "set_executor"):
            # No silent fallback: assigning a fresh pool to an engine
            # without the ownership protocol would leak it.
            raise TypeError(
                "engine does not implement set_executor (the "
                "repro.backend.ExecutorOwner protocol); construct the "
                "engine with its executor instead"
            )
        engine.set_executor(executor)  # disposes a previously owned pool
    if want_sparse:
        if not hasattr(engine, "set_sparse_policy"):
            raise TypeError(
                "engine does not implement set_sparse_policy; construct "
                "the engine with its sparse policy instead"
            )
        engine.set_sparse_policy(
            sparse if sparse is not None else cfg.sparse_policy()
        )
    if want_algorithm:
        # Same contract as the setters above: adopting onto an engine
        # that has no such knob is a TypeError, not a silent attribute.
        missing = [
            name
            for name, value in (
                ("algorithm", cfg.algorithm),
                ("up_levels", cfg.up_levels),
            )
            if value is not None and not hasattr(engine, name)
        ]
        if missing:
            raise TypeError(
                f"engine has no {'/'.join(missing)} attribute to adopt; "
                "construct the engine with repro.build_engine instead"
            )
        if cfg.algorithm is not None:
            engine.algorithm = cfg.algorithm
        if cfg.up_levels is not None:
            engine.up_levels = cfg.up_levels
    return engine
