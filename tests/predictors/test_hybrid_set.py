"""Tests for the tournament (hybrid) and set-prediction extensions."""

import pytest

from repro.core.config import CosmosConfig
from repro.core.predictor import CosmosPredictor
from repro.predictors.hybrid import HybridCosmos
from repro.predictors.set_predictor import SetCosmos
from repro.protocol.messages import MessageType, Role
from repro.sim.machine import simulate
from repro.workloads.registry import make_workload

BLOCK = 0x40
A = (1, MessageType.GET_RO_REQUEST)
B = (2, MessageType.GET_RO_REQUEST)
C = (3, MessageType.GET_RO_REQUEST)
MARK = (0, MessageType.INVAL_RW_RESPONSE)


def score_on_trace(events, factory):
    modules = {}
    hits = refs = 0
    for event in events:
        key = (event.node, event.role)
        predictor = modules.setdefault(key, factory())
        hits += predictor.observe(event.block, event.tuple).hit
        refs += 1
    return hits / refs


class TestHybrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            HybridCosmos(CosmosConfig(depth=3), CosmosConfig(depth=1))

    def test_simple_cycle_matches_shallow(self):
        hybrid = HybridCosmos()
        shallow = CosmosPredictor(CosmosConfig(depth=1))
        for _ in range(12):
            for tup in (A, B):
                hybrid.observe(BLOCK, tup)
                shallow.observe(BLOCK, tup)
        # A depth-1-predictable stream: the hybrid should do no worse
        # than the shallow component after its brief chooser warm-up.
        assert hybrid.hits >= shallow.hits - 3

    def test_learns_to_use_deep_component(self):
        # A stream only depth >= 2 can predict: three consumers in
        # rotating order (the paper's Section 3.5 example).
        hybrid = HybridCosmos(CosmosConfig(depth=1), CosmosConfig(depth=2))
        orders = [[A, B, C], [B, A, C], [C, A, B]]
        for _ in range(20):
            for order in orders:
                for tup in order:
                    hybrid.observe(BLOCK, tup)
                hybrid.observe(BLOCK, MARK)
        assert hybrid.deep_selected > hybrid.shallow_selected

    def test_tracks_best_component_on_real_app(self):
        trace = simulate(
            make_workload("unstructured", mesh_blocks=24, cold_blocks=0),
            iterations=16,
            seed=2,
        ).events
        shallow = score_on_trace(
            trace, lambda: CosmosPredictor(CosmosConfig(depth=1))
        )
        deep = score_on_trace(
            trace, lambda: CosmosPredictor(CosmosConfig(depth=3))
        )
        hybrid = score_on_trace(trace, HybridCosmos)
        # The tournament lands near (or above) the better fixed depth.
        assert hybrid >= min(shallow, deep)
        assert hybrid >= max(shallow, deep) - 0.05

    def test_memory_counts_both_components(self):
        hybrid = HybridCosmos()
        for _ in range(6):
            hybrid.observe(BLOCK, A)
        assert hybrid.mhr_entries == 2  # one block in both components
        assert hybrid.pht_entries >= 1


class TestSetCosmos:
    def test_validation(self):
        with pytest.raises(ValueError):
            SetCosmos(set_size=0)

    def test_point_prediction_is_most_recent(self):
        predictor = SetCosmos(CosmosConfig(depth=1), set_size=2)
        # After MARK, sometimes A follows, sometimes B.
        for successor in (A, B):
            predictor.update(BLOCK, MARK)
            predictor.update(BLOCK, successor)
        predictor.update(BLOCK, MARK)
        assert predictor.predict(BLOCK) == B  # most recent successor
        assert set(predictor.predict_set(BLOCK)) == {A, B}

    def test_set_hit_beats_point_hit_on_alternation(self):
        predictor = SetCosmos(CosmosConfig(depth=1), set_size=2)
        for _ in range(15):
            for successor in (A, B):
                predictor.update(BLOCK, MARK)
                predictor.update(BLOCK, successor)
        assert predictor.set_accuracy > 0.9
        assert predictor.set_hits > 0

    def test_set_size_bounds_entry(self):
        predictor = SetCosmos(CosmosConfig(depth=1), set_size=2)
        for successor in (A, B, C):
            predictor.update(BLOCK, MARK)
            predictor.update(BLOCK, successor)
        predictor.update(BLOCK, MARK)
        assert len(predictor.predict_set(BLOCK)) == 2
        assert C in predictor.predict_set(BLOCK)

    def test_set_accuracy_on_real_directory_stream(self):
        trace = simulate(
            make_workload("moldyn", force_blocks=8, coord_blocks=8,
                          cold_blocks=0),
            iterations=12,
            seed=3,
        ).events
        modules = {}
        for event in trace:
            if event.role is not Role.DIRECTORY:
                continue
            predictor = modules.setdefault(
                event.node, SetCosmos(CosmosConfig(depth=1), set_size=3)
            )
            predictor.observe(event.block, event.tuple)
        point = [p.accuracy for p in modules.values()]
        sets = [p.set_accuracy for p in modules.values()]
        # Set prediction dominates point prediction by construction.
        assert sum(sets) / len(sets) >= sum(point) / len(point)

    def test_empty_prediction(self):
        predictor = SetCosmos()
        assert predictor.predict(BLOCK) is None
        assert predictor.predict_set(BLOCK) == ()
