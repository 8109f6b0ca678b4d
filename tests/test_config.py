"""Tests for the ``repro.config`` configuration plane.

Covers the :class:`ScanConfig` spec-grammar and JSON round-trips, the
resolution precedence ladder (explicit > ``configure()`` override >
environment variable > default) including nesting and restoration on
exception, each engine's executor fixed when the engine is built (which
backend ran is counted per ``run_level`` call), the
:func:`repro.build_engine` facade (dispatch + bitwise
equivalence with the legacy kwarg paths), warning-free engine
construction, the removed threshold and retargeting spellings failing
loudly, and the serialized config embedded in bench records and the
environment fingerprint.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

import repro
from repro.backend import (
    ENV_VAR,
    SerialExecutor,
    ThreadPoolScanExecutor,
    get_executor,
)
from repro.config import ScanConfig, build_engine, configure
from repro.core import FeedforwardBPPSA, RNNBPPSA, Trainer
from repro.nn import LeNet5, RNNClassifier, make_mlp
from repro.optim import SGD
from repro.scan import (
    SPARSE_ENV_VAR,
    SPARSE_MODES,
    DenseJacobian,
    GradientVector,
    ScanContext,
    SparsePolicy,
    blelloch_scan,
)

#: The environment variable that set the auto cutoff before it became a
#: constant; a set value is now an error.
THRESHOLD_ENV = "REPRO_SCAN_SPARSE_THRESHOLD"

#: What every rejected sparse spelling's message must name.
VALID_MODES = re.escape(str(SPARSE_MODES))


def assert_round_trips(cfg: ScanConfig) -> None:
    """Both serialization surfaces reconstruct an equal config."""
    assert ScanConfig.from_spec(cfg.spec()) == cfg
    assert ScanConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


# ---------------------------------------------------------------------------
# spec grammar
# ---------------------------------------------------------------------------
class TestSpecGrammar:
    @pytest.mark.parametrize(
        "cfg",
        [
            ScanConfig(),
            ScanConfig(algorithm="linear"),
            ScanConfig(algorithm="truncated", up_levels=3),
            ScanConfig(executor="thread:8"),
            ScanConfig(sparse="auto"),
            ScanConfig(sparse="on"),
            ScanConfig(sparse="off"),
            ScanConfig(sparse_linear_tol=1e-8),
            ScanConfig(pattern_cache="shared"),
            ScanConfig(
                algorithm="blelloch",
                up_levels=2,
                executor="process:4",
                sparse="off",
                sparse_linear_tol=0.5,
                pattern_cache="private",
            ),
            ScanConfig().resolve(),
            ScanConfig.from_spec("blelloch/thread:8/sparse=auto"),
            ScanConfig.from_spec("blelloch/thread:8/sparse=auto").resolve(),
        ],
    )
    def test_round_trip(self, cfg):
        assert_round_trips(cfg)

    def test_issue_spec_parses(self):
        cfg = ScanConfig.from_spec("blelloch/thread:8/sparse=auto")
        assert cfg.algorithm == "blelloch"
        assert cfg.executor == "thread:8"
        assert cfg.sparse == "auto"

    def test_truncated_depth_sugar(self):
        cfg = ScanConfig.from_spec("truncated:3")
        assert cfg.algorithm == "truncated" and cfg.up_levels == 3
        assert cfg == ScanConfig.from_spec("truncated/up=3")

    def test_empty_spec_is_all_unset(self):
        assert ScanConfig.from_spec("") == ScanConfig()
        assert ScanConfig().spec() == ""

    def test_sparse_threshold_suffix_rejected(self):
        # The auto cutoff is a constant: "mode:threshold" is no mode.
        with pytest.raises(ValueError, match=VALID_MODES):
            ScanConfig.from_spec("blelloch/sparse=auto:0.4")
        with pytest.raises(ValueError, match=VALID_MODES):
            ScanConfig(sparse="auto:0.4")

    def test_densify_segment_rejected(self):
        with pytest.raises(ValueError, match=r"sparse=auto\|on\|off"):
            ScanConfig.from_spec("blelloch/densify=0.3")

    def test_densify_threshold_field_rejected(self):
        with pytest.raises(TypeError, match="densify_threshold"):
            ScanConfig(densify_threshold=0.4)
        with pytest.raises(TypeError, match="densify_threshold"):
            with configure(densify_threshold=0.4):
                pass  # pragma: no cover - never entered

    def test_sparse_policy_value_normalizes(self):
        assert ScanConfig(sparse=SparsePolicy("on")) == ScanConfig(sparse="on")

    @pytest.mark.parametrize(
        "bad",
        [
            "blelloch/linear",  # duplicate algorithm
            "thread:2/process:2",  # two executors
            "wat=1",  # unknown key
            "up=two",  # non-int depth
            "sparse=maybe",  # unknown mode
            "sparse=auto:lots",  # a threshold suffix (none is accepted)
            "thread:zero",  # bad worker count
            "cache=global",  # unknown cache policy
        ],
    )
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            ScanConfig.from_spec(bad)

    def test_validation(self):
        with pytest.raises(ValueError, match="algorithm"):
            ScanConfig(algorithm="bogus")
        with pytest.raises(ValueError, match="up_levels"):
            ScanConfig(up_levels=-1)
        with pytest.raises(TypeError, match="spec string"):
            ScanConfig(executor=SerialExecutor())
        # an empty executor name would break the spec round-trip
        with pytest.raises(ValueError, match="name a backend"):
            ScanConfig(executor="")
        with pytest.raises(ValueError, match="name a backend"):
            ScanConfig(executor=":4")
        # …as would a backend named like an algorithm
        with pytest.raises(ValueError, match="collides"):
            ScanConfig(executor="linear")

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            ScanConfig.from_dict({"workers": 8})

    def test_coerce_overrides_beat_spec(self):
        cfg = ScanConfig.coerce("linear/serial", executor="thread:2")
        assert cfg.algorithm == "linear" and cfg.executor == "thread:2"


# ---------------------------------------------------------------------------
# resolution precedence: explicit > configure() > env > default
# ---------------------------------------------------------------------------
class TestResolvePrecedence:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        monkeypatch.delenv(SPARSE_ENV_VAR, raising=False)
        cfg = ScanConfig().resolve()
        assert cfg.algorithm == "blelloch"
        assert cfg.up_levels == 2
        assert cfg.executor == "serial"
        assert cfg.sparse == "auto"
        assert cfg.sparse_linear_tol is None
        assert cfg.pattern_cache == "private"
        assert len(cfg.to_dict()) == 6

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "thread:2")
        monkeypatch.setenv(SPARSE_ENV_VAR, "on")
        cfg = ScanConfig().resolve()
        assert cfg.executor == "thread:2" and cfg.sparse == "on"

    def test_combined_sparse_env(self, monkeypatch):
        # A "mode:threshold" env value is rejected, not split …
        monkeypatch.setenv(SPARSE_ENV_VAR, "auto:0.4")
        with pytest.raises(ValueError, match=VALID_MODES):
            ScanConfig().resolve()
        # … and, like any env value, never read for an explicit mode.
        assert ScanConfig(sparse="on").resolve().sparse == "on"

    def test_threshold_env(self, monkeypatch):
        # The cutoff's old env var fails loudly instead of being ignored.
        monkeypatch.delenv(SPARSE_ENV_VAR, raising=False)
        monkeypatch.setenv(THRESHOLD_ENV, "0.5")
        with pytest.raises(ValueError, match=THRESHOLD_ENV):
            ScanConfig().resolve()
        with pytest.raises(ValueError, match=THRESHOLD_ENV):
            ScanConfig(sparse="auto").resolve()

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "thread:2")
        monkeypatch.setenv(SPARSE_ENV_VAR, "on")
        cfg = ScanConfig(executor="process:3", sparse="off").resolve()
        assert cfg.executor == "process:3" and cfg.sparse == "off"

    def test_spec_string_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "thread:2")
        cfg = ScanConfig.from_spec("process:3").resolve()
        assert cfg.executor == "process:3"

    def test_configure_beats_env_and_loses_to_explicit(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "thread:2")
        with configure(executor="thread:4"):
            assert ScanConfig().resolve().executor == "thread:4"
            assert ScanConfig(executor="serial").resolve().executor == "serial"
        assert ScanConfig().resolve().executor == "thread:2"

    def test_resolve_is_idempotent(self):
        cfg = ScanConfig(sparse="on").resolve()
        assert cfg.resolve() == cfg

    def test_rnn_engine_has_no_sparse_default_of_its_own(self, monkeypatch):
        # The RNN engine resolves like every other engine: the same
        # config whether or not sparse="auto" is named.
        monkeypatch.delenv(SPARSE_ENV_VAR, raising=False)
        clf = RNNClassifier(1, 4, 2, rng=np.random.default_rng(0))
        with RNNBPPSA(clf) as eng, RNNBPPSA(clf, sparse="auto") as named:
            assert eng.config == named.config == ScanConfig().resolve()
            assert eng.sparse_policy == SparsePolicy("auto")

    def test_engine_defaults_rank_below_env(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        cfg = ScanConfig().resolve(defaults={"executor": "thread:3"})
        assert cfg.executor == "thread:3"
        monkeypatch.setenv(ENV_VAR, "thread:2")
        cfg = ScanConfig().resolve(defaults={"executor": "thread:3"})
        assert cfg.executor == "thread:2"


# ---------------------------------------------------------------------------
# configure(): nesting, restoration, legacy call sites
# ---------------------------------------------------------------------------
class TestConfigure:
    def test_nesting_innermost_wins(self):
        with configure(executor="thread:2", sparse="off"):
            with configure(sparse="on"):
                cfg = repro.current_config()
                assert cfg.sparse == "on"
                assert cfg.executor == "thread:2"  # outer overlay survives
            assert repro.current_config().sparse == "off"

    def test_restores_on_exception(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        with pytest.raises(RuntimeError):
            with configure(executor="thread:2"):
                assert repro.current_config().executor == "thread:2"
                raise RuntimeError("boom")
        assert repro.current_config().executor == "serial"

    def test_default_executor_honors_overlay(self, monkeypatch):
        """An engine built with no executor takes the overlay's spec
        when it is built inside the block; ``executor=None`` on a scan
        function does not read the overlay."""
        monkeypatch.delenv(ENV_VAR, raising=False)
        clf = RNNClassifier(1, 4, 2, rng=np.random.default_rng(0))
        with RNNBPPSA(clf) as eng:
            assert eng.executor.workers == 1
        with configure(executor="thread:2"):
            with RNNBPPSA(clf) as eng:
                assert eng.executor.workers == 2
            assert get_executor(None).workers == 1
        with RNNBPPSA(clf) as eng:
            assert eng.executor.workers == 1

    def test_scan_context_honors_overlay(self):
        with configure(sparse="off"):
            assert ScanContext().sparse_policy.mode == "off"
        assert ScanContext().sparse_policy.mode == "auto"

    def test_engine_built_inside_scope_adopts_overlay(self, rng):
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        x = rng.standard_normal((4, 4))
        y = rng.integers(0, 2, 4)
        with configure(sparse="off", executor="thread:2"):
            eng = build_engine(model)
        with eng:  # used after the block: it keeps what it adopted
            assert eng.sparse_policy.mode == "off"
            assert eng.config.executor == "thread:2"
            # The engine built and owns a pool from the overlay's spec.
            assert isinstance(eng.executor, ThreadPoolScanExecutor)
            assert eng.executor.workers == 2
            eng.compute_gradients(x, y)
        assert eng.executor._pool is None  # released by the engine
        with build_engine(model) as eng:
            assert eng.sparse_policy.mode == "auto"
        # An explicit spec still produces an owned pool, scope or not.
        with configure(executor="thread:2"):
            with build_engine(model, executor="thread:3") as eng:
                assert eng.executor.workers == 3

    def test_spec_form(self):
        with configure("linear/thread:2"):
            cfg = repro.current_config()
            assert cfg.algorithm == "linear" and cfg.executor == "thread:2"

    def test_engines_built_in_a_block_each_own_a_pool_until_close(
        self, monkeypatch
    ):
        monkeypatch.delenv(ENV_VAR, raising=False)
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        with configure(executor="thread:2"):
            a, b = build_engine(model), build_engine(model)
        # The block owned no pool, so leaving it closed nothing.
        assert a.executor is not b.executor
        assert a.executor._pool is not None and b.executor._pool is not None
        a.close()
        assert a.executor._pool is None and b.executor._pool is not None
        b.close()
        assert b.executor._pool is None

    def test_env_engines_each_own_their_pool(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "thread:2")
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        engines = [FeedforwardBPPSA(model), build_engine(model)]
        try:
            # The env spec is read once, as each engine is built, and
            # each engine owns the pool built from it.
            assert all(e.config.executor == "thread:2" for e in engines)
            assert all(e.executor.workers == 2 for e in engines)
            assert engines[0].executor is not engines[1].executor
        finally:
            for e in engines:
                e.close()
        assert all(e.executor._pool is None for e in engines)


# ---------------------------------------------------------------------------
# the executor is fixed when the engine is built, for both engines
# ---------------------------------------------------------------------------
def _rnn_case():
    rng = np.random.default_rng(0)
    clf = RNNClassifier(1, 4, 2, rng=rng)
    return clf, rng.standard_normal((3, 6, 1)), rng.integers(0, 2, 3)


def _mlp_case():
    rng = np.random.default_rng(0)
    model = make_mlp([4, 4, 2], rng=rng)
    return model, rng.standard_normal((3, 4)), rng.integers(0, 2, 3)


@pytest.fixture(params=["rnn", "feedforward"])
def engine_case(request):
    """``(model, x, y)`` for one of the two BPPSA engines."""
    return {"rnn": _rnn_case, "feedforward": _mlp_case}[request.param]()


@pytest.fixture
def levels_run(monkeypatch):
    """``run_level`` calls counted by ``"backend:workers"``: which
    executor actually ran each scan level."""
    counts = collections.Counter()
    for cls in (SerialExecutor, ThreadPoolScanExecutor):

        def counting(self, tasks, _run_level=cls.run_level):
            counts[f"{self.name}:{self.workers}"] += 1
            return _run_level(self, tasks)

        monkeypatch.setattr(cls, "run_level", counting)
    return counts


class TestExecutorFixedAtConstruction:
    def test_engine_built_outside_block_ignores_it(
        self, engine_case, levels_run, monkeypatch
    ):
        model, x, y = engine_case
        monkeypatch.delenv(ENV_VAR, raising=False)
        with build_engine(model) as eng:
            assert eng.config.executor == "serial"
            with configure(executor="thread:2"):
                eng.compute_gradients(x, y)
        assert levels_run and set(levels_run) == {"serial:1"}

    def test_engine_built_inside_block_keeps_its_executor_after_exit(
        self, engine_case, levels_run, monkeypatch
    ):
        model, x, y = engine_case
        monkeypatch.delenv(ENV_VAR, raising=False)
        with configure(executor="thread:2"):
            eng = build_engine(model)
        try:
            assert eng.config.executor == "thread:2"
            eng.compute_gradients(x, y)
            assert levels_run and set(levels_run) == {"thread:2"}
        finally:
            eng.close()
        assert eng.executor._pool is None

    def test_env_change_after_construction_changes_no_executor(
        self, engine_case, levels_run, monkeypatch
    ):
        model, x, y = engine_case
        monkeypatch.delenv(ENV_VAR, raising=False)
        plain = build_engine(model)
        monkeypatch.setenv(ENV_VAR, "thread:2")
        from_env = build_engine(model)
        engines = [plain, from_env, build_engine(model, executor="serial")]
        built_with = [e.executor for e in engines]
        monkeypatch.setenv(ENV_VAR, "thread:3")
        try:
            for e in engines:
                e.compute_gradients(x, y)
            assert [e.executor for e in engines] == built_with
            assert set(levels_run) == {"serial:1", "thread:2"}
        finally:
            for e in engines:
                e.close()

    @pytest.mark.parametrize(
        "env, ambient, kwargs",
        [
            (None, None, {}),
            ("thread:2", None, {}),
            (None, "thread:3", {}),
            ("thread:2", "serial", {}),
            ("thread:2", None, {"executor": "thread:3"}),
            (None, "thread:2", {"executor": "serial"}),
        ],
    )
    def test_executor_is_built_from_config(
        self, engine_case, monkeypatch, env, ambient, kwargs
    ):
        model, _, _ = engine_case
        if env is None:
            monkeypatch.delenv(ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(ENV_VAR, env)
        with configure(executor=ambient):
            eng = build_engine(model, **kwargs)
        with eng:
            assert eng.executor is not None
            name, _, workers = eng.config.executor.partition(":")
            assert eng.executor.name == name
            assert eng.executor.workers == int(workers or 1)

    def test_bogus_env_fails_only_where_it_is_read(
        self, engine_case, levels_run, monkeypatch
    ):
        model, x, y = engine_case
        rng = np.random.default_rng(1)
        items = [GradientVector(rng.standard_normal((2, 3)))]
        items += [DenseJacobian(rng.standard_normal((2, 3, 3))) for _ in range(5)]
        monkeypatch.setenv(ENV_VAR, "bogus")
        blelloch_scan(items, ScanContext().op)  # executor=None: serial
        assert levels_run and set(levels_run) == {"serial:1"}
        with build_engine(model, "blelloch/serial") as eng:
            eng.compute_gradients(x, y)
        with pytest.raises(ValueError, match="unknown scan backend 'bogus'"):
            build_engine(model)


# ---------------------------------------------------------------------------
# build_engine facade
# ---------------------------------------------------------------------------
class TestBuildEngine:
    def test_dispatch(self):
        rng = np.random.default_rng(0)
        assert isinstance(
            build_engine(make_mlp([4, 4, 2], rng=rng)), FeedforwardBPPSA
        )
        assert isinstance(build_engine(RNNClassifier(1, 4, 2, rng=rng)), RNNBPPSA)
        lenet = build_engine(LeNet5(rng=rng, width_multiplier=0.25))
        assert isinstance(lenet, FeedforwardBPPSA)  # features+classifier flatten
        with pytest.raises(TypeError, match="build_engine"):
            build_engine(object())

    def test_engine_config_is_resolved_and_round_trips(self):
        eng = build_engine(make_mlp([4, 4, 2], rng=np.random.default_rng(0)))
        assert eng.config == eng.config.resolve()
        assert_round_trips(eng.config)

    def test_feedforward_gradients_bitwise_equal_legacy(self, rng):
        model = make_mlp([6, 8, 3], rng=np.random.default_rng(3))
        x = rng.standard_normal((8, 6))
        y = rng.integers(0, 3, 8)
        legacy = FeedforwardBPPSA(model, algorithm="blelloch")
        facade = build_engine(model, "blelloch")
        g_old, g_new = legacy.compute_gradients(x, y), facade.compute_gradients(x, y)
        assert g_old.keys() == g_new.keys()
        assert all(np.array_equal(g_old[k], g_new[k]) for k in g_old)

    def test_rnn_gradients_bitwise_equal_legacy(self, rng):
        clf = RNNClassifier(1, 6, 3, rng=np.random.default_rng(5))
        x = rng.standard_normal((4, 7, 1))
        y = rng.integers(0, 3, 4)
        legacy = RNNBPPSA(clf, algorithm="blelloch")
        facade = build_engine(clf, ScanConfig(algorithm="blelloch"))
        g_old, g_new = legacy.compute_gradients(x, y), facade.compute_gradients(x, y)
        assert all(np.array_equal(g_old[k], g_new[k]) for k in g_old)

    def test_executor_instance_override(self):
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        ex = SerialExecutor()
        eng = build_engine(model, "thread:2", executor=ex)
        assert eng.executor is ex  # instance wins over the config spec
        eng.close()

    def test_engine_kwargs_fold_like_coerce(self):
        # Explicit kwargs beat the config's fields, exactly as
        # ScanConfig.coerce(config, **kwargs) folds them.
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        base = ScanConfig.from_spec("truncated:3/sparse=off/tol=0.5")
        kwargs = dict(algorithm="linear", sparse="auto", executor="serial")
        with FeedforwardBPPSA(model, config=base, **kwargs) as eng:
            assert eng.config == ScanConfig.coerce(base, **kwargs).resolve()
            assert eng.config.up_levels == 3
            assert eng.sparse_policy == SparsePolicy("auto")
        clf = RNNClassifier(1, 4, 2, rng=np.random.default_rng(0))
        with RNNBPPSA(clf, config=base.spec(), sparse="on") as eng:
            assert eng.config.sparse == "on"
            assert eng.config.algorithm == "truncated"

    def test_bogus_executor_type_fails_at_construction(self):
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        with pytest.raises(TypeError, match="spec string"):
            FeedforwardBPPSA(model, executor=42)
        clf = RNNClassifier(1, 4, 2, rng=np.random.default_rng(0))
        with pytest.raises(TypeError, match="spec string"):
            RNNBPPSA(clf, executor=object())

    def test_experiment_entry_points_honor_config_algorithm(self, rng):
        # fig7/fig9 default to the paper's Blelloch scan but must not
        # silently override a config that names another algorithm
        # (run_all --config linear really runs the linear scan).
        from repro.experiments import fig7_convergence

        engines = []
        original = fig7_convergence.build_engine

        def spy(model, config=None, **kw):
            eng = original(model, config, **kw)
            engines.append(eng)
            return eng

        fig7_convergence.build_engine = spy
        try:
            result = fig7_convergence.run(config="linear")
        finally:
            fig7_convergence.build_engine = original
        assert engines and all(e.config.algorithm == "linear" for e in engines)
        # BPPSA reproduces taped BP's loss curve (Figure 7's claim)
        assert result["max_train_divergence"] < 1e-8

    def test_shared_pattern_cache_policy(self):
        rng = np.random.default_rng(0)
        a = build_engine(make_mlp([4, 4, 2], rng=rng), "cache=shared")
        b = build_engine(make_mlp([4, 4, 2], rng=rng), "cache=shared")
        c = build_engine(make_mlp([4, 4, 2], rng=rng))
        assert a.context.cache is b.context.cache
        assert a.context.cache is not c.context.cache


class TestSharedCacheBound:
    """The process-wide plan cache is a bounded LRU whose entry bound
    comes from ``$REPRO_SCAN_SHARED_CACHE`` (read once, at first
    build)."""

    @pytest.fixture
    def fresh_singleton(self, monkeypatch):
        """Force the next shared_pattern_cache() call to rebuild (the
        real singleton is restored afterwards)."""
        from repro.config import scan_config

        monkeypatch.setattr(scan_config, "_SHARED_PATTERN_CACHE", None)
        return monkeypatch

    def test_default_bound(self, fresh_singleton):
        from repro.config import DEFAULT_SHARED_CACHE_MAXSIZE, SHARED_CACHE_ENV_VAR
        from repro.config.scan_config import shared_pattern_cache

        fresh_singleton.delenv(SHARED_CACHE_ENV_VAR, raising=False)
        assert shared_pattern_cache().maxsize == DEFAULT_SHARED_CACHE_MAXSIZE

    def test_env_bound(self, fresh_singleton):
        from repro.config import SHARED_CACHE_ENV_VAR
        from repro.config.scan_config import shared_pattern_cache

        fresh_singleton.setenv(SHARED_CACHE_ENV_VAR, "7")
        assert shared_pattern_cache().maxsize == 7

    @pytest.mark.parametrize("raw", ["none", "unbounded", "0"])
    def test_env_unbounded(self, fresh_singleton, raw):
        from repro.config import SHARED_CACHE_ENV_VAR
        from repro.config.scan_config import shared_pattern_cache

        fresh_singleton.setenv(SHARED_CACHE_ENV_VAR, raw)
        assert shared_pattern_cache().maxsize is None

    @pytest.mark.parametrize("raw", ["junk", "-3", "1.5"])
    def test_env_invalid_rejected(self, fresh_singleton, raw):
        from repro.config import SHARED_CACHE_ENV_VAR
        from repro.config.scan_config import shared_pattern_cache

        fresh_singleton.setenv(SHARED_CACHE_ENV_VAR, raw)
        with pytest.raises(ValueError, match=SHARED_CACHE_ENV_VAR):
            shared_pattern_cache()


# ---------------------------------------------------------------------------
# the removed densify_threshold= engine kwarg (its rejection is pinned in
# test_kernel_oracle.py::TestRemovedSpellings)
# ---------------------------------------------------------------------------
class TestDeprecatedDensifyKwarg:
    def test_no_warning_without_the_kwarg(self):
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            FeedforwardBPPSA(model)
            build_engine(model, "blelloch/sparse=auto")


# ---------------------------------------------------------------------------
# an engine's config is fixed at construction: nothing retargets it
# ---------------------------------------------------------------------------
class TestNoRetargeting:
    def test_adopt_config_is_gone(self):
        with pytest.raises(AttributeError, match="adopt_config"):
            repro.adopt_config
        assert "adopt_config" not in repro.__all__
        assert not hasattr(repro.config, "adopt_config")

    @pytest.mark.parametrize("with_engine", [False, True])
    def test_trainer_scan_kwargs_rejected(self, with_engine):
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        engine = FeedforwardBPPSA(model) if with_engine else None
        opt = SGD(model.parameters(), lr=0.1)
        for kwarg in ("executor", "sparse", "config"):
            with pytest.raises(TypeError, match=kwarg):
                Trainer(model, opt, engine, **{kwarg: "serial"})

    def test_engines_expose_no_setters(self, rng):
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        clf = RNNClassifier(1, 4, 2, rng=np.random.default_rng(0))
        for eng in (FeedforwardBPPSA(model, "linear"), RNNBPPSA(clf, "linear")):
            for name in (
                "set_executor",
                "set_sparse_policy",
                "algorithm",
                "up_levels",
                "sparse_linear_tol",
            ):
                assert not hasattr(eng, name), name
        assert not hasattr(ScanContext(), "set_sparse_policy")
        # engine.config is what runs: a linear scan performs mat-vecs only.
        eng = FeedforwardBPPSA(model, "linear")
        assert eng.config.algorithm == "linear"
        eng.compute_gradients(rng.standard_normal((3, 4)), rng.integers(0, 2, 3))
        assert {record.kind for record in eng.context.trace} == {"mv"}


# ---------------------------------------------------------------------------
# bench integration: records and fingerprint embed the config
# ---------------------------------------------------------------------------
class TestBenchEmbedding:
    def test_records_embed_resolved_config(self):
        from repro.bench.runner import run_bench
        from repro.experiments.common import Scale

        records = run_bench(Scale.SMOKE, ["serial"], ["table2_devices"])
        assert len(records) == 1
        cfg = ScanConfig.from_dict(records[0].config)
        assert cfg == cfg.resolve()
        assert cfg.executor == "serial"
        d = records[0].to_dict()
        assert d["config"] == records[0].config  # survives serialization

    def test_record_config_round_trips_from_dict(self):
        from repro.bench.record import BenchRecord
        from repro.bench.env import environment_fingerprint
        from repro.bench.record import TimingStats

        rec = BenchRecord(
            artifact="x",
            scale="smoke",
            backend="serial",
            timing=TimingStats.from_times([0.1]),
            environment=environment_fingerprint(),
            num_rows=1,
            config=ScanConfig().resolve().to_dict(),
        )
        restored = BenchRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert restored.config == rec.config
        # pre-configuration-plane records (no config key) still read
        d = rec.to_dict()
        del d["config"]
        assert BenchRecord.from_dict(d).config == {}

    def test_fingerprint_embeds_ambient_config(self):
        from repro.bench.env import environment_fingerprint

        with configure(executor="thread:2"):
            fp = environment_fingerprint()
        assert ScanConfig.from_dict(fp["scan_config"]).executor == "thread:2"

    def test_malformed_env_does_not_abort_analytical_records(self, monkeypatch):
        from repro.bench.env import environment_fingerprint
        from repro.bench.runner import run_bench
        from repro.experiments.common import Scale

        monkeypatch.setenv(SPARSE_ENV_VAR, "bogus")
        fp = environment_fingerprint()
        assert "error" in fp["scan_config"]  # surfaced, not raised
        records = run_bench(Scale.SMOKE, ["serial"], ["table2_devices"])
        assert len(records) == 1 and "error" in records[0].config
        records[0].to_dict()  # still schema-valid

    def test_records_with_a_densify_threshold_still_load(self, tmp_path):
        # Records written while the cutoff was a field carry it in both
        # the config and the fingerprint; they must still load, compare
        # and render.
        from repro.bench.compare import compare_results
        from repro.bench.env import environment_fingerprint
        from repro.bench.record import BenchRecord, TimingStats
        from repro.bench.writer import load_records
        from repro.dashboard import build_site, check_site

        old_config = dict(ScanConfig().resolve().to_dict(), densify_threshold=0.25)
        env = dict(environment_fingerprint(), scan_config=dict(old_config))
        rec = BenchRecord(
            artifact="sparse_scan",
            scale="smoke",
            backend="serial[sparse=auto]",
            timing=TimingStats.from_times([0.1, 0.11, 0.12], warmup=1),
            environment=env,
            num_rows=1,
            config=old_config,
        )
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps({"schema_version": 1, "records": [rec.to_dict()]})
        )
        (loaded,) = load_records(path)
        assert loaded.config["densify_threshold"] == 0.25
        assert loaded.environment["scan_config"]["densify_threshold"] == 0.25
        fresh = dataclasses.replace(loaded, config=ScanConfig().resolve().to_dict())
        (delta,) = compare_results([loaded], [fresh])
        assert delta.status == "ok"
        site = tmp_path / "site"
        build_site(site, [loaded], [fresh])
        assert check_site(site) == []
        page = (site / "artifact" / "sparse_scan" / "index.html").read_text()
        assert "densify_threshold=0.25" in page
