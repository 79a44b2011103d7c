"""Tests for the type-only and global-history Cosmos variants."""

import pytest

from repro.core.config import CosmosConfig
from repro.core.predictor import CosmosPredictor
from repro.predictors.variants import GlobalHistoryCosmos, TypeOnlyCosmos
from repro.protocol.messages import MessageType, Role
from repro.sim.machine import simulate
from repro.workloads.registry import make_workload

BLOCK = 0x40
A1 = (1, MessageType.GET_RO_REQUEST)
A2 = (2, MessageType.GET_RO_REQUEST)
B1 = (1, MessageType.UPGRADE_REQUEST)


class TestTypeOnly:
    def test_predicts_type_with_last_sender(self):
        predictor = TypeOnlyCosmos(CosmosConfig(depth=1))
        # Types cycle get_ro -> upgrade, senders alternate.
        for tup in (A1, B1, A2, B1, A1):
            predictor.update(BLOCK, tup)
        predicted = predictor.predict(BLOCK)
        assert predicted is not None
        assert predicted[1] is MessageType.UPGRADE_REQUEST
        assert predicted[0] == 1  # last observed sender

    def test_type_accuracy_ignores_sender_churn(self):
        # Senders alternate every cycle: full-tuple Cosmos can adapt at
        # depth 1 only partially, but type accuracy is perfect.
        predictor = TypeOnlyCosmos(CosmosConfig(depth=1))
        for _ in range(10):
            for tup in (A1, B1, A2, B1):  # types alternate, senders churn
                predictor.observe(BLOCK, tup)
        assert predictor.type_accuracy > 0.9

    def test_shares_tables_across_senders(self):
        full = CosmosPredictor(CosmosConfig(depth=1))
        typed = TypeOnlyCosmos(CosmosConfig(depth=1))
        stream = [A1, B1, A2, B1] * 5
        for tup in stream:
            full.update(BLOCK, tup)
            typed.update(BLOCK, tup)
        # The type-only tables collapse A1/A2 into one pattern.
        assert typed.pht_entries < full.pht_entries

    def test_silent_before_history(self):
        predictor = TypeOnlyCosmos()
        assert predictor.predict(BLOCK) is None


class TestGlobalHistory:
    def test_single_block_behaves_like_cosmos(self):
        global_variant = GlobalHistoryCosmos(CosmosConfig(depth=1))
        cosmos = CosmosPredictor(CosmosConfig(depth=1))
        stream = [A1, B1] * 10
        for tup in stream:
            global_variant.observe(BLOCK, tup)
            cosmos.observe(BLOCK, tup)
        assert global_variant.hits == cosmos.hits

    def test_interleaving_scrambles_global_history(self):
        # Two blocks with clean individual cycles, interleaved in a
        # varying order: per-block history stays clean, global history
        # does not.
        import random

        rng = random.Random(0)
        global_variant = GlobalHistoryCosmos(CosmosConfig(depth=2))
        per_block = CosmosPredictor(CosmosConfig(depth=2))
        blocks = [0x40, 0x80, 0xC0, 0x100]
        cycles = {b: [(i, MessageType.GET_RO_REQUEST), (i, MessageType.UPGRADE_REQUEST)]
                  for i, b in enumerate(blocks)}
        position = {b: 0 for b in blocks}
        for _ in range(400):
            block = rng.choice(blocks)
            tup = cycles[block][position[block] % 2]
            position[block] += 1
            global_variant.observe(block, tup)
            per_block.observe(block, tup)
        assert per_block.accuracy > global_variant.accuracy + 0.2

    def test_on_real_workload_per_block_wins(self):
        trace = simulate(
            make_workload("unstructured", mesh_blocks=16, cold_blocks=0),
            iterations=10,
            seed=4,
        )
        scores = {}
        for name, factory in (
            ("per-block", lambda: CosmosPredictor(CosmosConfig(depth=2))),
            ("global", lambda: GlobalHistoryCosmos(CosmosConfig(depth=2))),
        ):
            modules = {}
            hits = refs = 0
            for event in trace.events:
                key = (event.node, event.role)
                predictor = modules.setdefault(key, factory())
                hits += predictor.observe(event.block, event.tuple).hit
                refs += 1
            scores[name] = hits / refs
        assert scores["per-block"] > scores["global"]
