"""Tests for the ``repro.config`` configuration plane.

Covers the :class:`ScanConfig` spec-grammar and JSON round-trips, the
resolution precedence ladder (explicit > ``configure()`` override >
environment variable > default) including nesting and restoration on
exception, the :func:`repro.build_engine` facade (dispatch + bitwise
equivalence with the legacy kwarg paths), the deprecated
``densify_threshold=`` engine kwarg, the shared
:func:`repro.config.adopt_config` validation, and the serialized
config embedded in bench records and the environment fingerprint.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

import repro
from repro.backend import ENV_VAR, SerialExecutor, default_executor
from repro.config import ScanConfig, adopt_config, build_engine, configure
from repro.core import FeedforwardBPPSA, RNNBPPSA, Trainer
from repro.nn import LeNet5, RNNClassifier, make_mlp
from repro.optim import SGD
from repro.scan import (
    SPARSE_ENV_VAR,
    THRESHOLD_ENV_VAR,
    ScanContext,
    SparsePolicy,
)


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
            ScanConfig(sparse="auto", densify_threshold=0.4),
            ScanConfig(sparse="on"),
            ScanConfig(densify_threshold=0.125),
            ScanConfig(sparse_linear_tol=1e-8),
            ScanConfig(pattern_cache="shared"),
            ScanConfig(
                algorithm="blelloch",
                up_levels=2,
                executor="process:4",
                sparse="off",
                densify_threshold=0.25,
                sparse_linear_tol=0.5,
                pattern_cache="private",
            ),
            ScanConfig().resolve(),
            ScanConfig.from_spec("blelloch/thread:8/sparse=auto:0.4"),
            ScanConfig.from_spec("blelloch/thread:8/sparse=auto:0.4").resolve(),
        ],
    )
    def test_round_trip(self, cfg):
        assert_round_trips(cfg)

    def test_issue_spec_parses(self):
        cfg = ScanConfig.from_spec("blelloch/thread:8/sparse=auto:0.4")
        assert cfg.algorithm == "blelloch"
        assert cfg.executor == "thread:8"
        assert cfg.sparse == "auto"
        assert cfg.densify_threshold == 0.4

    def test_truncated_depth_sugar(self):
        cfg = ScanConfig.from_spec("truncated:3")
        assert cfg.algorithm == "truncated" and cfg.up_levels == 3
        assert cfg == ScanConfig.from_spec("truncated/up=3")

    def test_empty_spec_is_all_unset(self):
        assert ScanConfig.from_spec("") == ScanConfig()
        assert ScanConfig().spec() == ""

    def test_combined_sparse_normalizes(self):
        assert ScanConfig(sparse="auto:0.4") == ScanConfig(
            sparse="auto", densify_threshold=0.4
        )

    def test_sparse_policy_value_normalizes(self):
        cfg = ScanConfig(sparse=SparsePolicy("auto", densify_threshold=0.3))
        assert cfg.sparse == "auto" and cfg.densify_threshold == 0.3
        # the policy's None threshold ("never densify") maps to 1.0
        cfg = ScanConfig(sparse=SparsePolicy("auto", densify_threshold=None))
        assert cfg.densify_threshold == 1.0
        assert cfg.sparse_policy().densify_threshold is None

    @pytest.mark.parametrize(
        "bad",
        [
            "blelloch/linear",  # duplicate algorithm
            "thread:2/process:2",  # two executors
            "wat=1",  # unknown key
            "up=two",  # non-int depth
            "sparse=maybe",  # unknown mode
            "sparse=auto:lots",  # non-float threshold
            "thread:zero",  # bad worker count
            "cache=global",  # unknown cache policy
        ],
    )
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            ScanConfig.from_spec(bad)

    def test_conflicting_thresholds_raise(self):
        with pytest.raises(ValueError, match="conflicting"):
            ScanConfig(sparse="auto:0.4", densify_threshold=0.3)

    def test_validation(self):
        with pytest.raises(ValueError, match="algorithm"):
            ScanConfig(algorithm="bogus")
        with pytest.raises(ValueError, match="up_levels"):
            ScanConfig(up_levels=-1)
        with pytest.raises(ValueError, match="densify_threshold"):
            ScanConfig(densify_threshold=1.5)
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
        # a combined sparse override supersedes the base threshold too
        cfg = ScanConfig.coerce(
            ScanConfig(densify_threshold=0.3), sparse="auto:0.4"
        )
        assert cfg.densify_threshold == 0.4


# ---------------------------------------------------------------------------
# resolution precedence: explicit > configure() > env > default
# ---------------------------------------------------------------------------
class TestResolvePrecedence:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        monkeypatch.delenv(SPARSE_ENV_VAR, raising=False)
        monkeypatch.delenv(THRESHOLD_ENV_VAR, raising=False)
        cfg = ScanConfig().resolve()
        assert cfg.algorithm == "blelloch"
        assert cfg.up_levels == 2
        assert cfg.executor == "serial"
        assert cfg.sparse == "auto"
        assert cfg.densify_threshold == 0.25
        assert cfg.sparse_linear_tol is None
        assert cfg.pattern_cache == "private"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "thread:2")
        monkeypatch.setenv(SPARSE_ENV_VAR, "on")
        cfg = ScanConfig().resolve()
        assert cfg.executor == "thread:2" and cfg.sparse == "on"

    def test_combined_sparse_env(self, monkeypatch):
        monkeypatch.setenv(SPARSE_ENV_VAR, "auto:0.4")
        cfg = ScanConfig().resolve()
        assert cfg.sparse == "auto" and cfg.densify_threshold == 0.4
        # an explicit threshold beats the one embedded in the env spec
        assert ScanConfig(densify_threshold=0.1).resolve().densify_threshold == 0.1

    def test_threshold_env(self, monkeypatch):
        monkeypatch.delenv(SPARSE_ENV_VAR, raising=False)
        monkeypatch.setenv(THRESHOLD_ENV_VAR, "0.5")
        assert ScanConfig().resolve().densify_threshold == 0.5

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
        cfg = ScanConfig(sparse="auto:0.4").resolve()
        assert cfg.resolve() == cfg

    def test_bare_env_mode_is_a_complete_policy_spec(self, monkeypatch):
        # REPRO_SCAN_SPARSE=auto (no threshold suffix) resets the
        # threshold to the env/global default, exactly like
        # SparsePolicy.parse("auto") always did — it does NOT fall
        # through to a code-level engine fallback further down the
        # ladder (the RNN engine's never-densify default, here).
        monkeypatch.setenv(SPARSE_ENV_VAR, "auto")
        monkeypatch.delenv(THRESHOLD_ENV_VAR, raising=False)
        cfg = ScanConfig().resolve(defaults={"densify_threshold": 1.0})
        assert cfg.densify_threshold == 0.25
        assert SparsePolicy.resolve(
            None, densify_threshold=None
        ).densify_threshold == 0.25  # legacy call site, old semantics kept
        monkeypatch.setenv(THRESHOLD_ENV_VAR, "0.5")
        cfg = ScanConfig().resolve(defaults={"densify_threshold": 1.0})
        assert cfg.densify_threshold == 0.5

    def test_explicit_bare_mode_never_takes_engine_threshold(self, monkeypatch):
        monkeypatch.delenv(SPARSE_ENV_VAR, raising=False)
        monkeypatch.delenv(THRESHOLD_ENV_VAR, raising=False)
        # An explicitly named bare mode is a complete policy spec:
        # RNNBPPSA(sparse="auto") keeps the historical auto:0.25, not
        # the engine's never-densify fallback…
        clf = RNNClassifier(1, 4, 2, rng=np.random.default_rng(0))
        with RNNBPPSA(clf, sparse="auto") as eng:
            assert eng.sparse_policy.densify_threshold == 0.25
        # …and configure(sparse="auto") resolves exactly like
        # REPRO_SCAN_SPARSE=auto would.
        with configure(sparse="auto"):
            cfg = ScanConfig().resolve(defaults={"densify_threshold": 1.0})
        assert cfg.densify_threshold == 0.25
        # With the mode unset everywhere, the engine fallback applies.
        with RNNBPPSA(clf) as eng:
            assert eng.sparse_policy.densify_threshold is None

    def test_engine_defaults_rank_below_env(self, monkeypatch):
        monkeypatch.delenv(THRESHOLD_ENV_VAR, raising=False)
        cfg = ScanConfig().resolve(defaults={"densify_threshold": 1.0})
        assert cfg.densify_threshold == 1.0
        monkeypatch.setenv(THRESHOLD_ENV_VAR, "0.5")
        cfg = ScanConfig().resolve(defaults={"densify_threshold": 1.0})
        assert cfg.densify_threshold == 0.5


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
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert default_executor().workers == 1
        with configure(executor="thread:2"):
            assert default_executor().workers == 2
        assert default_executor().workers == 1

    def test_scan_context_honors_overlay(self):
        with configure(sparse="off"):
            assert ScanContext().sparse_policy.mode == "off"
        assert ScanContext().sparse_policy.mode == "auto"

    def test_engine_built_inside_scope_adopts_overlay(self, rng):
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        x = rng.standard_normal((4, 4))
        y = rng.integers(0, 2, 4)
        with configure(sparse="off", executor="thread:2"):
            with build_engine(model) as eng:
                assert eng.sparse_policy.mode == "off"
                assert eng.config.executor == "thread:2"
                # Ambient engines share the block's scoped pool instead
                # of each owning a copy of it.
                assert eng.executor is None
                assert default_executor().workers == 2
                eng.compute_gradients(x, y)  # runs on the scoped pool
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

    def test_scoped_default_pool_is_per_block_and_closed_on_exit(
        self, monkeypatch
    ):
        monkeypatch.delenv(ENV_VAR, raising=False)
        process_default = default_executor()
        with configure(executor="thread:2"):
            scoped = default_executor()
            assert scoped.workers == 2
            assert default_executor() is scoped  # one pool per block
        assert scoped._pool is None  # closed when the block exited
        # the process-wide default was never rebuilt or closed
        assert default_executor() is process_default

    def test_ambient_env_engines_share_the_default_pool(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "thread:2")
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        engines = [FeedforwardBPPSA(model), build_engine(model)]
        try:
            # No explicit spec anywhere → the engines follow the shared
            # process-wide default at scan time instead of each owning
            # a copy of the env-selected pool.
            assert all(e.executor is None for e in engines)
            assert engines[0].config.executor == "thread:2"  # still recorded
        finally:
            for e in engines:
                e.close()
            monkeypatch.delenv(ENV_VAR)
            default_executor()  # rebuild (and close the thread default)


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
        assert engines and all(e.algorithm == "linear" for e in engines)
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
# deprecated densify_threshold= engine kwarg
# ---------------------------------------------------------------------------
class TestDeprecatedDensifyKwarg:
    def test_warns_and_maps_onto_config(self):
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        with pytest.warns(DeprecationWarning, match="densify_threshold"):
            eng = FeedforwardBPPSA(model, densify_threshold=0.4)
        assert eng.sparse_policy.densify_threshold == 0.4
        assert eng.config.densify_threshold == 0.4

    def test_none_still_means_never_densify(self):
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        with pytest.warns(DeprecationWarning):
            eng = FeedforwardBPPSA(model, densify_threshold=None)
        assert eng.sparse_policy.densify_threshold is None
        assert eng.sparse_policy.keep_product_sparse(1.0)

    def test_ignored_when_sparse_given(self):
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        with pytest.warns(DeprecationWarning):
            eng = FeedforwardBPPSA(model, densify_threshold=0.9, sparse="auto:0.2")
        assert eng.sparse_policy.densify_threshold == 0.2

    def test_no_warning_without_the_kwarg(self):
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            FeedforwardBPPSA(model)
            build_engine(model, "blelloch/sparse=auto:0.3")


# ---------------------------------------------------------------------------
# adopt_config: the deduplicated Trainer validation
# ---------------------------------------------------------------------------
class TestAdoptConfig:
    def test_noop_without_engine_or_fields(self):
        assert adopt_config(None) is None
        assert adopt_config(None, ScanConfig()) is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"executor": "thread:2"},
            {"sparse": "off"},
            {"config": ScanConfig(executor="thread:2")},
            {"config": ScanConfig(sparse="off")},
        ],
    )
    def test_engine_missing_is_valueerror_for_every_field(self, kwargs):
        # one exception type for the same mistake, whichever knob names it
        with pytest.raises(ValueError, match="BPPSA engine"):
            adopt_config(None, kwargs.pop("config", None), **kwargs)

    def test_missing_protocol_is_typeerror_for_every_field(self):
        class NoProtocol:
            pass

        with pytest.raises(TypeError, match="set_executor"):
            adopt_config(NoProtocol(), executor="thread:2")
        with pytest.raises(TypeError, match="set_sparse_policy"):
            adopt_config(NoProtocol(), sparse="off")
        with pytest.raises(TypeError, match="algorithm"):
            adopt_config(NoProtocol(), "linear")

    def test_trainer_funnels_through_adopt_config(self):
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        eng = FeedforwardBPPSA(model)
        Trainer(
            model,
            SGD(model.parameters(), lr=0.1),
            engine=eng,
            config=ScanConfig(executor="thread:2", sparse="off"),
        )
        assert eng.executor.workers == 2
        assert eng.sparse_policy.mode == "off"
        eng.close()

    def test_trainer_sparse_without_engine_is_valueerror(self):
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="BPPSA engine"):
            Trainer(model, SGD(model.parameters(), lr=0.1), sparse="off")

    def test_adopts_algorithm_and_depth(self):
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        eng = FeedforwardBPPSA(model)
        adopt_config(eng, "truncated:1")
        assert eng.algorithm == "truncated" and eng.up_levels == 1

    def test_construction_only_fields_raise(self):
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        eng = FeedforwardBPPSA(model)
        with pytest.raises(ValueError, match="construction-only"):
            adopt_config(eng, ScanConfig(sparse_linear_tol=1e-8))


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
