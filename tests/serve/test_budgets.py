"""Per-tenant memory budgets in the serving path.

The serving contract under pressure: a budgeted worker *evicts* instead
of growing (never crashes, never answers wrong), marks the responses it
served while evicting as ``degraded: "evicting"`` -- which are real,
checkable answers, not fallbacks -- and a warm restore re-enforces the
budget even when the checkpoint predates it (budgets are deliberately
excluded from the config fingerprint so tightening one shrinks restored
state rather than discarding it).
"""

import asyncio

import pytest

from repro.core.memory import memory_report
from repro.core.predictor import CosmosPredictor
from repro.core.tuples import pack
from repro.errors import ConfigError
from repro.protocol.messages import MessageType
from repro.serve.chaos import ChaosScript
from repro.serve.client import RetryPolicy, ServeClient
from repro.serve.config import ServeConfig
from repro.serve.frontend import PredictionService
from repro.serve.loadgen import replay_trace, verify_predictions
from repro.serve.state import save_shard_checkpoint
from repro.serve.worker import ShardBanks
from repro.sim.metrics import METRICS

from .common import synthetic_events, wait_all_closed

SEED = 4
BUDGET = 4  # MHR entries per tenant bank; synthetic streams use 12 blocks


def _config(**overrides):
    base = dict(
        shards=1,
        queue_depth=8,
        deadline_ms=250.0,
        hang_timeout_ms=2_000.0,
        checkpoint_every=64,
        seed=SEED,
        tenant_mhr_budget=BUDGET,
        tenant_pht_budget=BUDGET * 4,
        eviction="lru",
    )
    base.update(overrides)
    return ServeConfig(**base)


class TestConfigBudgets:
    def test_negative_budgets_are_rejected(self):
        with pytest.raises(ConfigError):
            ServeConfig(tenant_mhr_budget=-1)
        with pytest.raises(ConfigError):
            ServeConfig(tenant_pht_budget=-8)

    def test_unknown_eviction_policy_is_rejected(self):
        with pytest.raises(ConfigError):
            ServeConfig(eviction="fifo")

    def test_predictor_config_carries_the_budgets(self):
        pconfig = _config().predictor_config()
        assert pconfig.mhr_capacity == BUDGET
        assert pconfig.pht_capacity == BUDGET * 4
        assert pconfig.eviction == "lru"

    def test_budgets_do_not_change_the_fingerprint(self):
        # On purpose: a checkpoint taken unbudgeted must load under a
        # budget (and be shrunk by enforcement), not be thrown away.
        assert (
            ServeConfig().fingerprint()
            == ServeConfig(
                tenant_mhr_budget=64,
                tenant_pht_budget=256,
                eviction="decay",
            ).fingerprint()
        )


async def _replay(config, events, chaos=None):
    service = PredictionService(config, chaos=chaos)
    await service.start()
    try:
        report = await replay_trace(
            "127.0.0.1",
            service.port,
            events,
            client_id="budgets",
            chaos_actions=chaos.client_actions() if chaos else (),
            policy=RetryPolicy(base_delay_ms=10.0, max_retries=20),
        )
        async with ServeClient(
            "127.0.0.1", service.port, "budgets-stat"
        ) as client:
            recovered = await wait_all_closed(client)
            stats = (await client.stat())["shards"]
    finally:
        await service.stop()
    return report, stats, recovered


class TestBudgetedService:
    def test_evicts_answers_correctly_and_reports_memory(self):
        METRICS.reset()
        config = _config()
        events = synthetic_events(400, seed=SEED, nodes=3, blocks=12)
        report, stats, recovered = asyncio.run(_replay(config, events))

        assert report.sent == 400
        assert report.errors == 0
        assert report.degraded == 0  # no faults: nothing was a fallback
        # The budget genuinely bound: some answers were served while
        # evicting, and they count as ok (they are real answers).
        assert report.evicting > 0
        assert report.ok == 400

        # Budget-aware mirrors reproduce every answer, the evicting
        # ones included.
        checked, wrong = verify_predictions(report.results, config)
        assert wrong == 0
        assert checked == 400

        # The stat surface reports this shard's predictor memory.
        assert recovered
        memory = stats[0]["memory"]
        assert memory is not None
        assert memory["tenants"] == 3  # n0/n1/n2.cache
        assert 0 < memory["mhr_live"] <= 3 * BUDGET
        assert memory["evictions_mhr"] > 0
        assert memory["bytes_est"] > 0
        assert memory["peak_mhr"] >= memory["mhr_live"]

        # Exactly: the report built over budget-aware mirrors replayed
        # in admission-ordinal order, key for key and in the same order.
        pconfig = config.predictor_config()
        mirrors = {}
        for result in sorted(report.results, key=lambda r: r.index):
            mirror = mirrors.get(result.tenant)
            if mirror is None:
                mirror = mirrors[result.tenant] = CosmosPredictor(pconfig)
            mirror.observe_word(result.block, result.word)
        expected = {
            "tenants": len(mirrors),
            **memory_report(pconfig, mirrors.values()),
        }
        assert list(memory) == list(expected)
        assert memory == expected

    def test_unbudgeted_mirrors_would_catch_a_budget_mismatch(self):
        # Sanity for the oracle itself: verifying a budgeted run with
        # unbudgeted mirrors must NOT come out clean -- otherwise the
        # wrong==0 assertion above would be vacuous.
        METRICS.reset()
        config = _config()
        events = synthetic_events(400, seed=SEED, nodes=3, blocks=12)
        report, _stats, _recovered = asyncio.run(_replay(config, events))
        _checked, wrong = verify_predictions(report.results, None)
        assert wrong > 0

    def test_flood_is_shed_with_retry_after_not_worker_death(self):
        METRICS.reset()
        config = _config(queue_depth=4)
        events = synthetic_events(300, seed=SEED, nodes=3, blocks=12)
        chaos = ChaosScript.parse("flood:at=100,burst=48")
        report, stats, recovered = asyncio.run(
            _replay(config, events, chaos)
        )
        # Every burst member was eventually answered via RETRY_AFTER
        # backoff; the budgeted worker survived the whole thing.
        assert report.sent == 300
        assert report.errors == 0
        assert METRICS.counter("serve.shed.queue") > 0
        assert recovered
        assert stats[0]["restores"] == 0  # shed, not killed
        checked, wrong = verify_predictions(report.results, config)
        assert wrong == 0
        assert checked == report.ok


WORDS = [
    pack((0, MessageType.GET_RO_RESPONSE)),
    pack((1, MessageType.INVAL_RO_REQUEST)),
]


def _oversized_banks(n_blocks=10):
    """Unbudgeted banks trained well past BUDGET distinct blocks."""
    banks = {"n0.cache": CosmosPredictor(), "n1.cache": CosmosPredictor()}
    trained = 0
    for predictor in banks.values():
        for rep in range(2):
            for i in range(n_blocks):
                predictor.observe_word(64 * i, WORDS[rep % len(WORDS)])
                trained += 1
    return banks, trained


class TestWarmRestoreEnforcement:
    def test_restore_re_enforces_the_budget(self, tmp_path):
        config = _config()
        banks, trained = _oversized_banks()
        assert all(b.mhr_entries > BUDGET for b in banks.values())
        # Same fingerprint as an unbudgeted service: see the config test.
        save_shard_checkpoint(
            tmp_path, 0, trained, config.fingerprint(), banks
        )

        async def _run():
            service = PredictionService(
                config, checkpoint_dir=str(tmp_path)
            )
            await service.start()
            try:
                async with ServeClient(
                    "127.0.0.1", service.port, "restore-stat"
                ) as client:
                    assert await wait_all_closed(client)
                    # One touch of an already-tracked block shows the warm
                    # start in ``trained`` without inserting.
                    await client.observe(
                        "n0.cache", 0, 0, int(MessageType.GET_RO_RESPONSE)
                    )
                    return (await client.stat())["shards"]
            finally:
                await service.stop()

        METRICS.reset()
        stats = asyncio.run(_run())
        memory = stats[0]["memory"]
        assert memory is not None
        assert stats[0]["trained"] > trained  # warm, not cold, start
        # enforce_capacity() shrank the oversized restored banks down
        # to the budget at startup.
        assert memory["mhr_live"] <= 2 * BUDGET
        assert memory["evictions_mhr"] >= 2 * (10 - BUDGET)


class TestRestoredShardBanks:
    def test_adopted_over_budget_banks_report_exactly_memory_report(self):
        pconfig = _config(eviction="clock").predictor_config()
        # Restored state over the budget: the constructor adopts it
        # under the budget's config and evicts it down to the budget.
        restored, _trained = _oversized_banks()
        banks = ShardBanks(pconfig, restored)
        assert all(bank.config == pconfig for bank in banks.banks.values())
        memory = banks.memory()
        assert memory == {
            "tenants": 2,
            **memory_report(pconfig, banks.banks.values()),
        }
        assert memory["mhr_live"] <= 2 * BUDGET
        assert memory["evictions_mhr"] >= 2 * (10 - BUDGET)
