"""``armed_factory``: the one way a replay arms its predictors.

``repro-trace evaluate --corrupt`` and the corruption study both build
their modules through it, so its seeding rule -- module ``i`` in
first-reference order gets ``seed * 1_000_003 + i`` -- fixes their
output.
"""

from repro.core.bank import PredictorBank
from repro.core.config import CosmosConfig
from repro.core.corruption import CorruptionInjector, CorruptionProfile
from repro.core.predictor import CosmosPredictor, armed_factory

PROFILE = CorruptionProfile(flip=0.05, loss=0.01)
CONFIG = CosmosConfig(depth=2)


def replay(events, factory):
    bank = PredictorBank(factory=factory)
    outcomes = [bank.observe(event) for event in events]
    return bank, outcomes


def totals(predictors):
    return [
        (p.corrupt_flips, p.corrupt_losses, p.corrupt_detected)
        for p in predictors
    ]


class TestArmedFactory:
    def test_collects_every_predictor_it_builds(self, producer_consumer_trace):
        factory, armed = armed_factory(CONFIG, PROFILE, seed=3)
        bank, _ = replay(producer_consumer_trace, factory)
        assert len(armed) == len(bank) > 1
        assert {id(p) for _, p in bank} == {id(p) for p in armed}
        assert all(isinstance(p, CosmosPredictor) for p in armed)
        assert all(p.config == CONFIG for p in armed)

    def test_module_i_is_seeded_by_first_reference_order(
        self, producer_consumer_trace
    ):
        factory, armed = armed_factory(CONFIG, PROFILE, seed=3)
        _, outcomes = replay(producer_consumer_trace, factory)

        built = []

        def by_hand():
            injector = CorruptionInjector(PROFILE, seed=3 * 1_000_003 + len(built))
            built.append(CosmosPredictor(CONFIG, corruption=injector))
            return built[-1]

        _, expected = replay(producer_consumer_trace, by_hand)
        assert outcomes == expected
        assert totals(armed) == totals(built)

    def test_same_seed_replays_identically(self, producer_consumer_trace):
        runs = []
        for _ in range(2):
            factory, armed = armed_factory(CONFIG, PROFILE, seed=5)
            _, outcomes = replay(producer_consumer_trace, factory)
            runs.append((outcomes, totals(armed)))
        assert runs[0] == runs[1]
        assert sum(flips for flips, _, _ in runs[0][1]) > 0

    def test_each_call_starts_a_fresh_list(self):
        factory_a, armed_a = armed_factory(CONFIG, PROFILE, seed=0)
        factory_b, armed_b = armed_factory(CONFIG, PROFILE, seed=0)
        factory_a()
        factory_a()
        factory_b()
        assert (len(armed_a), len(armed_b)) == (2, 1)
