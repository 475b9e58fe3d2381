"""Tests for the unified Session API: registry, shared pool, result store."""

import dataclasses
import json

import numpy as np
import pytest

from repro.arch.params import DEFAULT_COSTS, ClusterParams, CostModelParams
from repro.core.pipeline import SpikeStreamInference
from repro.config import baseline_config, spikestream_config
from repro.energy.params import EnergyParams
from repro.eval.runner import SWEEPS
from repro.eval.sweeps import functional_network
from repro.serve.batcher import functional_group_key, statistical_group_key
from repro.session import SCENARIOS, ResultStore, Session
from repro.types import Precision


class TestScenarioRegistry:
    def test_every_experiment_and_sweep_registered(self):
        session = Session()
        names = set(session.scenarios())
        assert {"memory_footprint", "utilization", "speedup", "energy",
                "svgg11_variants", "accelerator_comparison",
                "spva_microbenchmark"} <= names
        assert {"firing_rate", "core_count", "precision", "stream_length",
                "strided_indirect"} <= names
        assert names == set(SCENARIOS) | set(SWEEPS)

    def test_describe_reports_kind_figure_and_params(self):
        session = Session()
        info = session.describe("speedup")
        assert info["kind"] == "experiment"
        assert info["figure"] == "fig3c"
        assert "batch_size" in info["params"]
        info = session.describe("firing_rate")
        assert info["kind"] == "sweep"
        assert "rates" in info["params"]

    def test_unknown_scenario_rejected(self):
        session = Session()
        with pytest.raises(KeyError, match="unknown scenario"):
            session.run("nope")
        with pytest.raises(KeyError, match="unknown scenario"):
            session.describe("nope")

    def test_unknown_scenario_param_rejected(self):
        with pytest.raises(TypeError):
            Session().run("spva_microbenchmark", bogus_param=3)

    def test_param_the_scenario_does_not_accept_rejected(self):
        # firing_rate's points never read a batch size, so one would run
        # the same points whatever its value.
        assert "batch_size" not in Session().describe("firing_rate")["params"]
        with pytest.raises(TypeError, match="batch_size.*accepts seed, precision, rates"):
            Session().run("firing_rate", batch_size=2)

    def test_invalid_backend_and_jobs_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            Session(backend="gpu")
        with pytest.raises(ValueError, match="jobs"):
            Session(jobs=0)

    def test_scenario_results_match_module_level_functions(self):
        session = Session()
        result = session.run("spva_microbenchmark", stream_lengths=(1, 8), seed=4)
        assert [row["stream_length"] for row in result.rows] == [1, 8]
        sweep = session.run("stream_length", lengths=(2, 16))
        assert sweep.name == "parallel_stream_length_sweep"
        assert [row["stream_length"] for row in sweep.rows] == [2, 16]


class TestResultStore:
    def _result(self, seed=3):
        engine = SpikeStreamInference(spikestream_config(batch_size=1, seed=seed))
        return engine.run_statistical(batch_size=1, seed=seed)

    def test_in_memory_roundtrip_and_counters(self):
        store = ResultStore()
        assert store.get("abc") is None
        result = self._result()
        store.put("abc", result)
        assert store.get("abc").identical_to(result)
        assert store.hits == 1 and store.misses == 1
        assert "abc" in store and len(store) == 1

    def test_disk_persistence_across_instances(self, tmp_path):
        store = ResultStore(tmp_path)
        result = self._result()
        store.put("deadbeef", result)
        assert (tmp_path / "deadbeef.json").exists()
        reloaded = ResultStore(tmp_path)
        served = reloaded.get("deadbeef")
        assert served is not None and served.identical_to(result)
        assert reloaded.hits == 1 and reloaded.misses == 0

    def test_corrupt_store_entry_ignored_with_warning(self, tmp_path, capsys):
        (tmp_path / "badf00d.json").write_text("NOT JSON{{{")
        store = ResultStore(tmp_path)
        assert store.get("badf00d") is None  # must not raise
        assert "warning" in capsys.readouterr().err
        assert store.misses == 1

    def test_store_files_are_valid_json(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("cafe", self._result())
        payload = json.loads((tmp_path / "cafe.json").read_text())
        assert payload["config"]["precision"] == "fp16"
        assert payload["layers"]


class TestSharedPool:
    def test_serial_session_has_no_pool(self):
        session = Session()
        assert session.shared_executor() is None
        assert session.pool_launches == 0

    def test_one_pool_reused_across_sweeps_and_experiments(self):
        with Session(jobs=2, backend="thread") as session:
            first = session.shared_executor()
            assert first is not None
            session.run("stream_length", lengths=(1, 4, 16))
            session.run("firing_rate", rates=(0.1, 0.3))
            session.run("utilization", batch_size=1, seed=8)
            assert session.shared_executor() is first
            assert session.pool_launches == 1

    def test_close_shuts_down_pool(self):
        session = Session(jobs=2, backend="thread")
        pool = session.shared_executor()
        assert pool is not None
        session.close()
        assert session._executor is None
        session.close()  # idempotent

    def test_broken_pool_invalidated_instead_of_reused(self, capsys):
        session = Session(jobs=2, backend="thread")
        pool = session.shared_executor()
        assert pool is not None
        pool._broken = "worker died"  # what a BrokenExecutor failure leaves behind
        assert session.shared_executor() is None  # dead pool not handed out again
        assert "broken" in capsys.readouterr().err
        assert session.shared_executor() is None  # permanently serial, no warning spam
        assert session.pool_launches == 1
        # The session still produces results (serially).
        result = session.run("stream_length", lengths=(2,))
        assert result.rows[0]["stream_length"] == 2

    def test_parallel_session_matches_serial_results(self):
        serial = Session().run("firing_rate", seed=7, rates=(0.05, 0.2))
        with Session(jobs=2, backend="thread") as parallel_session:
            threaded = parallel_session.run("firing_rate", seed=7, rates=(0.05, 0.2))
        assert serial.rows == threaded.rows
        assert serial.headline == threaded.headline

    def test_parallel_variants_match_serial(self):
        cold = Session().run_variants(batch_size=1, seed=21)
        with Session(jobs=2, backend="thread") as session:
            pooled = session.run_variants(batch_size=1, seed=21)
        for key in cold:
            assert pooled[key].identical_to(cold[key])


class TestResultStoreIntegration:
    def test_run_inference_served_from_store(self, monkeypatch):
        session = Session()
        simulations = []
        original = SpikeStreamInference.run_statistical

        def counting(self, *args, **kwargs):
            simulations.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SpikeStreamInference, "run_statistical", counting)
        config = spikestream_config(Precision.FP16, batch_size=1, seed=17)
        first = session.run_inference(config)
        assert len(simulations) == 1
        second = session.run_inference(config)
        assert len(simulations) == 1  # no re-simulation
        assert session.store.hits == 1
        assert second.identical_to(first)

    def test_acceptance_sweep_and_experiment_one_pool_then_store_hit(self, monkeypatch):
        # The PR's acceptance criterion: one Session instance runs a sweep
        # and an experiment through session.run(...) reusing the same pool,
        # and a second session.run with an identical RunConfig fingerprint
        # is served from the ResultStore without re-simulating.
        with Session(jobs=2, backend="thread") as session:
            sweep = session.run("stream_length", lengths=(1, 8))
            assert sweep.rows
            first = session.run("speedup", batch_size=1, seed=5)
            assert session.pool_launches == 1

            simulations = []
            monkeypatch.setattr(
                SpikeStreamInference,
                "run_statistical",
                lambda self, *a, **k: simulations.append(1),
            )
            hits_before = session.store.hits
            second = session.run("speedup", batch_size=1, seed=5)
            assert simulations == []  # served entirely from the store
            assert session.store.hits - hits_before == 3  # all three variants
            assert second.rows == first.rows
            assert second.headline == first.headline
            assert session.pool_launches == 1

    def test_store_persists_across_sessions(self, tmp_path):
        with Session(cache_dir=tmp_path) as session:
            first = session.run("energy", batch_size=1, seed=9)
            assert session.store.misses == 3
        with Session(cache_dir=tmp_path) as fresh:
            second = fresh.run("energy", batch_size=1, seed=9)
            assert fresh.store.hits == 3 and fresh.store.misses == 0
        assert second.rows == first.rows
        assert second.headline == first.headline

    def test_store_hit_equals_cold_run(self, tmp_path):
        cached_session = Session(cache_dir=tmp_path)
        cached_session.run_variants(batch_size=1, seed=31)
        served = cached_session.run_variants(batch_size=1, seed=31)
        cold = Session().run_variants(batch_size=1, seed=31)
        for key in cold:
            assert served[key].identical_to(cold[key])

    def test_store_immune_to_caller_mutation(self):
        session = Session()
        config = spikestream_config(batch_size=1, seed=23)
        first = session.run_inference(config)  # miss: same object that was put
        pristine_cycles = float(first.layers[0].cycles[0])
        first.layers[0].cycles *= 0.0
        second = session.run_inference(config)  # hit: must be unpoisoned
        assert second.layers[0].cycles[0] == pristine_cycles
        second.layers[0].cycles *= 0.0
        third = session.run_inference(config)
        assert third.layers[0].cycles[0] == pristine_cycles

    @pytest.mark.parametrize("size", [{"batch_size": 0}, {"timesteps": 0}])
    def test_empty_run_raises_before_the_store(self, size):
        session = Session()
        with pytest.raises(ValueError, match="must be positive"):
            session.run_inference(seed=1, **size)
        assert session.store.hits == 0 and session.store.misses == 0

    def test_unknown_firing_rate_layer_raises(self):
        session = Session()
        with pytest.raises(ValueError, match="conv_2"):
            session.run_inference(batch_size=2, seed=1, firing_rates={"conv_2": 0.9})
        assert session.store.stats()["entries"] == 0

    def test_different_fingerprint_misses(self):
        session = Session()
        config = spikestream_config(batch_size=1, seed=2)
        session.run_inference(config)
        session.run_inference(config.with_precision(Precision.FP8))
        session.run_inference(config, seed=3)
        assert session.store.hits == 0 and session.store.misses == 3


class TestSessionModelWarnings:
    def test_scenario_on_default_models_warns_for_custom_session(self, capsys):
        costs = dataclasses.replace(DEFAULT_COSTS, baseline_spva_instrs_per_element=9)
        session = Session(costs=costs)
        session.run("stream_length", lengths=(2,))
        assert "default hardware models" in capsys.readouterr().err
        # Scenarios that do run on the session's models stay silent.
        session.run("speedup", batch_size=1, seed=6)
        assert "default hardware models" not in capsys.readouterr().err

    def test_default_session_models_never_warn(self, capsys):
        Session().run("stream_length", lengths=(2,))
        assert "default hardware models" not in capsys.readouterr().err


#: Store keys the fingerprints produced before the serialised hardware
#: models were memoised; persisted stores must keep hitting them.  The two
#: functional keys of ``functional_network(5)`` were re-recorded when
#: ``initialize`` began rounding spike-layer weights to the exact-spike
#: grid; the last key, of a network with explicitly bound float64 weights,
#: predates that and must not move.
_STORED_KEYS = {
    "default": [
        "e6c79631a2a2ea61d4d2d94a20e7b11470c5f803c389800b75db5da2af0cc74e",
        "768d8098e460d461ca30c606ff60681587db2c321fe1e5dfc6c898bab359548d",
        "stat:88dffcb6c8c778882d8906c369b9c1bcb631daf92b4b66cb9b1e9b0f86ca0740",
        "4286a8b70f32dd752dc9d60af99f8da644b9486207bbd0b287df7e3a0d692d7c",
        "func:f5805e17d9af112f5e86f51f3dd46e1bcc2e69c6323aa44c18a4f65afb39f13d:(16, 16, 3):float64",
        "c6a9bc5a925f936a3eaa01405f6ba1a4de7d695f8102d7bd97eb05d78764dfcc",
    ],
    "custom": [
        "a82dbd0ad185f357c16b27093535e7fcfbf3f6a6c8fdfd4eed1421bdb946ec91",
        "2c5c04b6ac8b163ce21de65917fd5a4e37a6a6943a4a04544326109a7e732cfa",
        "stat:88254e66e02bb57f0bcc2f8d7df02ef69ac1eb124f5ea5daf9abc9bc6a84306f",
        "0964df51ebdb95e85a3d22e0d991db9e48a0f6c6c220d6a18476dfa8342de958",
        "func:61dd1dc33a05ccb0cccc30b9e0d04b36a3b95e755f8737d8a3fdf94d461aaba3:(16, 16, 3):float64",
        "5f4be1140d67326c9e21f7de1d60761edaac41c80155f6f1d29253f2965ce71a",
    ],
}


def _explicit_float64_network():
    """``functional_network(5)``'s layers with float64 weights bound by hand."""
    network = functional_network(5)
    rng = np.random.default_rng(5)
    for index in network.weighted_layers:
        layer = network.layers[index]
        layer.weights = rng.normal(0.0, 0.25, size=layer.weights.shape)
    return network


class TestFingerprintStability:
    @pytest.mark.parametrize("models", ["default", "custom"])
    def test_keys_match_the_stored_ones(self, models):
        custom = dict(
            cluster=ClusterParams(num_worker_cores=4),
            costs=CostModelParams(atomic_operation_cycles=6.0),
            energy=EnergyParams(spm_access_pj=11.0),
        )
        session = Session(**(custom if models == "custom" else {}))
        config = spikestream_config(batch_size=2, seed=9)
        network = functional_network(5)
        explicit = _explicit_float64_network()
        frames = np.random.default_rng(5).random((2, 16, 16, 3))
        # Twice: the second round is served by the memo.
        for _ in range(2):
            assert [
                session.fingerprint(config),
                session.fingerprint(baseline_config(Precision.FP8), 3, {"conv3": 0.2}, 11, 4),
                statistical_group_key(session, config, {"fc1": 0.5}, 1),
                session.functional_fingerprint(config, network, frames),
                functional_group_key(session, config, network, frames),
                session.functional_fingerprint(config, explicit, frames),
            ] == _STORED_KEYS[models]
