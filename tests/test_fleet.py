"""Fleet-scale sharded simulation: determinism, seeding, merging, QoE."""

import pickle

import pytest

from repro.errors import ReproError
from repro.fleet import (
    jain_fairness,
    run_fleet,
    run_fleet_shard,
    shard_populations,
    shard_seeds,
)
from repro.parallel import ResultCache
from repro.sim.rng import RngRegistry

#: A small but real fleet: four shards, every shard multi-client, short
#: priming so the whole thing stays a sub-second test.
SMALL_FLEET = dict(clients=64, shards=4, duration=8.0, prime=4.0)


def small_fleet(**overrides):
    return run_fleet(**{**SMALL_FLEET, "cache": None, **overrides})


# -- determinism ---------------------------------------------------------------


def test_fingerprint_is_byte_identical_across_jobs():
    """The cross-shard report must not depend on how shards were fanned
    out: submission-order merging makes jobs=1 and jobs=4 identical."""
    serial = small_fleet(jobs=1)
    parallel = small_fleet(jobs=4)
    assert serial.fingerprint() == parallel.fingerprint()
    assert repr(serial.shard_results) == repr(parallel.shard_results)


def test_fingerprint_varies_with_master_seed():
    assert small_fleet(jobs=1).fingerprint() \
        != small_fleet(jobs=1, master_seed=1).fingerprint()


def test_cache_hit_reproduces_the_report(tmp_path):
    """ShardResult carries no wall-clock state, so a fully cached rerun
    merges to the same fingerprint (only the harness wall time differs)."""
    cache = ResultCache(root=tmp_path / "cache", fingerprint="fleet-test")
    first = small_fleet(jobs=1, cache=cache)
    second = small_fleet(jobs=1, cache=cache)
    assert cache.hits == len(first.shard_results)
    assert first.fingerprint() == second.fingerprint()


# -- seeding -------------------------------------------------------------------


def test_shard_seeds_are_execution_order_independent():
    """A shard's seed is a pure function of (master seed, shard name):
    spawning in any order, or spawning only one, yields the same value."""
    forward = shard_seeds(8, master_seed=42)
    registry = RngRegistry(42)
    backward = [registry.spawn_seed(f"shard-{i}")
                for i in reversed(range(8))][::-1]
    assert forward == backward
    lone = RngRegistry(42).spawn_seed("shard-5")
    assert forward[5] == lone


def test_shard_seeds_are_distinct():
    seeds = shard_seeds(16, master_seed=0)
    assert len(set(seeds)) == 16


def test_shard_populations_split_evenly():
    assert shard_populations(1000, 8) == [125] * 8
    assert shard_populations(10, 4) == [3, 3, 2, 2]
    assert sum(shard_populations(1003, 8)) == 1003
    with pytest.raises(ReproError):
        shard_populations(3, 4)
    with pytest.raises(ReproError):
        shard_populations(10, 0)


# -- one shard -----------------------------------------------------------------


def test_shard_result_is_complete_and_picklable():
    result = run_fleet_shard(clients=24, duration=8.0, prime=4.0,
                             shard=3, seed=11)
    assert result.shard == 3 and result.seed == 11
    assert result.n_clients == 24 and len(result.records) == 24
    assert result.n_servers == 1  # 24 clients fit one 32-client server
    total = sum(record.bytes for record in result.records)
    assert total > 0
    for record in result.records:
        assert 0.0 < record.mean_fidelity <= 1.0
        assert record.chunks > 0
    clone = pickle.loads(pickle.dumps(result))
    assert clone == result


def test_shard_pools_servers_by_population():
    result = run_fleet_shard(clients=40, duration=4.0, prime=2.0, seed=3)
    assert result.n_servers == 2  # ceil(40 / 32)


# -- merged report -------------------------------------------------------------


def test_report_merges_in_shard_order():
    report = small_fleet(jobs=1)
    assert [result.shard for result in report.shard_results] == [0, 1, 2, 3]
    assert len(report.records) == report.clients
    assert report.total_bytes == sum(r.bytes for r in report.records)
    assert 0.0 < report.mean_fidelity <= 1.0
    assert 0.0 < report.fairness <= 1.0
    p5, p50, p95 = report.fidelity_distribution()
    assert p5 <= p50 <= p95


def test_jain_fairness_bounds():
    assert jain_fairness([5, 5, 5]) == pytest.approx(1.0)
    assert jain_fairness([1, 0, 0, 0]) == pytest.approx(0.25)
    assert jain_fairness([]) == 1.0
    assert jain_fairness([0, 0]) == 1.0


# -- CLI -----------------------------------------------------------------------


def test_fleet_cli_smoke(capsys):
    from repro.cli import main

    code = main(["fleet", "--clients", "16", "--shards", "4",
                 "--duration", "4", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    assert "16 clients x 4 shards" in out
    assert "fingerprint" in out and "fairness" in out
