"""Tests for the ``repro.config`` configuration plane.

Covers the :class:`ScanConfig` spec-grammar and JSON round-trips, the
resolution precedence ladder (explicit > caller default > global
default), each engine's executor fixed when the engine is built (which
backend ran is counted per ``run_level`` call) and refusing work once
closed, the :func:`repro.build_engine` facade (dispatch + bitwise
equivalence with the legacy kwarg paths), warning-free engine
construction, the removed threshold, retargeting and ambient-config
spellings failing loudly, and the serialized config embedded in bench
records.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

import repro
from repro.backend import SerialExecutor, ThreadPoolScanExecutor
from repro.config import ALGORITHMS, ScanConfig, build_engine
from repro.core import FeedforwardBPPSA, RNNBPPSA, Trainer
from repro.nn import LeNet5, RNNClassifier, make_mlp
from repro.optim import SGD
from repro.scan import (
    SCANS,
    SPARSE_MODES,
    DenseJacobian,
    GradientVector,
    ScanContext,
    SparsePolicy,
)
from repro.serve import EngineServer

#: Environment variables that configured a scan before every setting
#: became explicit, each with a value it once took; each is an error
#: while set.
REMOVED_ENV_VARS = {
    "REPRO_SCAN_BACKEND": "thread:2",
    "REPRO_SCAN_SPARSE": "off",
    "REPRO_SCAN_SPARSE_THRESHOLD": "0.5",
    "REPRO_SCAN_SHARED_CACHE": "7",
}

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
        # a config names an algorithm of the one scan table
        assert ALGORITHMS == tuple(SCANS)
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
# resolution precedence: explicit > caller default > global default
# ---------------------------------------------------------------------------
class TestResolvePrecedence:
    def test_defaults(self):
        cfg = ScanConfig().resolve()
        assert cfg.algorithm == "blelloch"
        assert cfg.up_levels == 2
        assert cfg.executor == "serial"
        assert cfg.sparse == "auto"
        assert cfg.sparse_linear_tol is None
        assert cfg.pattern_cache == "private"
        assert len(cfg.to_dict()) == 6
        assert cfg == ScanConfig.from_spec(
            "blelloch/up=2/serial/sparse=auto/cache=private"
        )
        model = make_mlp([4, 4, 2], rng=np.random.default_rng(0))
        with build_engine(model) as eng:
            assert eng.config == cfg

    def test_threshold_env(self, monkeypatch):
        # The cutoff's old env var fails loudly instead of being ignored.
        monkeypatch.setenv("REPRO_SCAN_SPARSE_THRESHOLD", "0.5")
        with pytest.raises(ValueError, match="REPRO_SCAN_SPARSE_THRESHOLD"):
            ScanConfig().resolve()
        with pytest.raises(ValueError, match="REPRO_SCAN_SPARSE_THRESHOLD"):
            ScanConfig(sparse="auto").resolve()

    def test_resolve_is_idempotent(self):
        cfg = ScanConfig(sparse="on").resolve()
        assert cfg.resolve() == cfg

    def test_rnn_engine_has_no_sparse_default_of_its_own(self):
        # The RNN engine resolves like every other engine: the same
        # config whether or not sparse="auto" is named.
        clf = RNNClassifier(1, 4, 2, rng=np.random.default_rng(0))
        with RNNBPPSA(clf) as eng, RNNBPPSA(clf, config="sparse=auto") as named:
            assert eng.config == named.config == ScanConfig().resolve()
            assert eng.sparse_policy == SparsePolicy("auto")
        with pytest.raises(TypeError, match="sparse"):
            RNNBPPSA(clf, sparse="auto")

    def test_caller_defaults_rank_between_explicit_and_global(self):
        defaults = {"algorithm": "truncated", "executor": "thread:3"}
        cfg = ScanConfig().resolve(defaults)
        assert cfg.algorithm == "truncated" and cfg.executor == "thread:3"
        assert cfg.up_levels == 2  # unset in both: the global default
        cfg = ScanConfig(executor="serial", up_levels=0).resolve(defaults)
        assert cfg.executor == "serial" and cfg.up_levels == 0
        assert cfg.algorithm == "truncated"


# ---------------------------------------------------------------------------
# the ambient configuration is gone: every removed spelling fails loudly
# ---------------------------------------------------------------------------
class TestRemovedAmbientConfig:
    @pytest.mark.parametrize("var", REMOVED_ENV_VARS)
    def test_removed_env_var_fails_loudly(self, var, monkeypatch, rng):
        monkeypatch.setenv(var, REMOVED_ENV_VARS[var])
        for resolve in (
            lambda: ScanConfig().resolve(),
            lambda: ScanConfig.from_spec("linear/serial/sparse=on").resolve(),
            lambda: build_engine(make_mlp([4, 4, 2], rng=rng)),
        ):
            with pytest.raises(ValueError, match=var):
                resolve()
        items = [GradientVector(rng.standard_normal((2, 3)))]
        items += [DenseJacobian(rng.standard_normal((2, 3, 3))) for _ in range(3)]

        async def submit():
            async with EngineServer(max_wait_ms=0) as server:
                await server.submit("blelloch/serial", items)

        with pytest.raises(ValueError, match=var):
            asyncio.run(submit())

    def test_configure_and_current_config_are_gone(self):
        for name in ("configure", "current_config"):
            with pytest.raises(AttributeError, match=name):
                getattr(repro, name)
            assert name not in repro.__all__
        with pytest.raises(ImportError, match="configure"):
            from repro.config import configure  # noqa: F401


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
    @pytest.mark.parametrize("spec", ["serial", "thread:2", "thread:3"])
    def test_executor_is_built_from_config(self, engine_case, levels_run, spec):
        model, x, y = engine_case
        with build_engine(model, executor=spec) as eng:
            assert eng.config.executor == spec
            eng.compute_gradients(x, y)
            eng.compute_gradients(x, y)
        name, _, workers = spec.partition(":")
        assert levels_run and set(levels_run) == {f"{name}:{workers or 1}"}

    def test_caller_instance_runs_and_stays_open(self, engine_case, levels_run):
        model, x, y = engine_case
        with ThreadPoolScanExecutor(2) as ex:
            with build_engine(model, executor=ex) as eng:
                assert eng.executor is ex
                eng.compute_gradients(x, y)
            assert levels_run and set(levels_run) == {"thread:2"}
            # The engine's close() left the caller's pool running.
            assert ex._pool is not None
            eng.compute_gradients(x, y)

    @pytest.mark.parametrize("spec", ["thread:1", "thread:2"])
    def test_closed_engine_refuses_to_scan(self, engine_case, levels_run, spec):
        """A closed thread executor raises instead of running its levels
        inline, so it never passes for a serial one (``thread:1`` has no
        pool to lose, hence a flag)."""
        model, x, y = engine_case
        eng = build_engine(model, executor=spec)
        eng.compute_gradients(x, y)
        eng.close()
        ran = sum(levels_run.values())
        with pytest.raises(RuntimeError, match=f"{spec} executor is closed"):
            eng.compute_gradients(x, y)
        assert sum(levels_run.values()) == ran + 1  # the refused call only


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
        config = ScanConfig.coerce(base, sparse="on").spec()
        with RNNBPPSA(clf, config=config, algorithm="linear") as eng:
            assert eng.config.sparse == "on"
            assert eng.config.algorithm == "linear"
            assert eng.config.up_levels == 3

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
    """The process-wide plan cache is a bounded LRU of a fixed size."""

    def test_default_bound(self, monkeypatch):
        from repro.config import DEFAULT_SHARED_CACHE_MAXSIZE, scan_config
        from repro.config.scan_config import shared_pattern_cache

        # Force a rebuild; the real singleton is restored afterwards.
        monkeypatch.setattr(scan_config, "_SHARED_PATTERN_CACHE", None)
        assert DEFAULT_SHARED_CACHE_MAXSIZE == 256
        assert shared_pattern_cache().maxsize == DEFAULT_SHARED_CACHE_MAXSIZE


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

    def test_records_with_a_densify_threshold_still_load(self, tmp_path):
        # Records written while the cutoff was a field carry it in both
        # the config and the fingerprint, and records written while the
        # environment could configure a scan carry the raw variables in
        # the fingerprint; they must still load, compare and render.
        from repro.bench.compare import compare_results
        from repro.bench.env import environment_fingerprint
        from repro.bench.record import BenchRecord, TimingStats
        from repro.bench.writer import load_records
        from repro.dashboard import build_site, check_site

        ambient_keys = ("scan_backend_env", "scan_sparse_env", "scan_config")
        assert not set(ambient_keys) & set(environment_fingerprint())
        old_config = dict(ScanConfig().resolve().to_dict(), densify_threshold=0.25)
        env = dict(
            environment_fingerprint(),
            scan_backend_env="thread:2",
            scan_sparse_env=None,
            scan_config=dict(old_config),
        )
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
        assert loaded.environment["scan_backend_env"] == "thread:2"
        fresh = dataclasses.replace(
            loaded,
            config=ScanConfig().resolve().to_dict(),
            environment=environment_fingerprint(),
        )
        (delta,) = compare_results([loaded], [fresh])
        assert delta.status == "ok"
        site = tmp_path / "site"
        build_site(site, [loaded], [fresh])
        assert check_site(site) == []
        page = (site / "artifact" / "sparse_scan" / "index.html").read_text()
        assert "densify_threshold=0.25" in page
