"""Tests for access primitives and sharing-pattern helpers."""

import pickle
import random

import pytest

from repro.workloads.access import (
    Access,
    empty_phase,
    read,
    read_modify_write,
    write,
)
from repro.workloads.patterns import (
    drifted,
    false_sharing,
    migratory,
    producer_consumer,
    sample_consumers,
    shuffled,
)


class TestAccess:
    def test_read_write_constructors(self):
        assert read(64) == Access(64, is_write=False)
        assert write(64) == Access(64, is_write=True)

    def test_read_modify_write(self):
        assert read_modify_write(0) == [read(0), write(0)]

    def test_frozen(self):
        access = read(64)
        with pytest.raises(AttributeError):
            access.block = 128
        with pytest.raises(AttributeError):
            access.extra = 1

    def test_equality_like_a_frozen_dataclass(self):
        assert read(64) == Access(64, False) and not read(64) != read(64)
        assert read(64) != write(64) and read(64) != read(128)
        # Never equal to a plain tuple of the same fields, either way.
        assert read(64) != (64, False) and (64, False) != read(64)
        assert not read(64) == (64, False)
        assert not (64, False) == read(64)

    def test_hash_is_the_field_tuples(self):
        assert hash(write(64)) == hash((64, True))
        assert len({read(64), read(64), write(64)}) == 2

    def test_pickle_round_trip(self):
        access = write(64)
        clone = pickle.loads(pickle.dumps(access))
        assert type(clone) is Access and clone == access
        assert str(clone) == "st 0x40"

    def test_empty_phase(self):
        phase = empty_phase(4)
        assert len(phase) == 4
        assert all(stream == [] for stream in phase)
        phase[0].append(read(0))
        assert phase[1] == []  # independent lists


class TestProducerConsumer:
    def test_with_producer_read(self):
        phase = empty_phase(4)
        producer_consumer(phase, 0, producer=1, consumers=[2, 3])
        assert phase[1] == [read(0), write(0)]
        assert phase[2] == [read(0)]
        assert phase[3] == [read(0)]

    def test_write_only_producer(self):
        phase = empty_phase(4)
        producer_consumer(phase, 0, 1, [2], producer_reads=False)
        assert phase[1] == [write(0)]

    def test_producer_excluded_from_consumers(self):
        phase = empty_phase(4)
        producer_consumer(phase, 0, 1, [1, 2])
        assert phase[1] == [read(0), write(0)]  # no extra consumer read


class TestMigratory:
    def test_each_participant_rmw(self):
        phase = empty_phase(4)
        migratory(phase, 0, [2, 0, 3])
        for proc in (0, 2, 3):
            assert phase[proc] == [read(0), write(0)]
        assert phase[1] == []


class TestFalseSharing:
    def test_all_writers_touch_block(self):
        phase = empty_phase(4)
        false_sharing(phase, 0, writers=(1, 2), readers=[3],
                      rng=random.Random(0))
        assert phase[1] == [read(0), write(0)]
        assert phase[2] == [read(0), write(0)]
        assert phase[3] == [read(0)]


class TestOrderHelpers:
    def test_shuffled_preserves_elements(self):
        rng = random.Random(1)
        items = list(range(20))
        result = shuffled(items, rng)
        assert sorted(result) == items
        assert items == list(range(20))  # input untouched

    def test_drifted_preserves_elements(self):
        rng = random.Random(1)
        items = list(range(20))
        result = drifted(items, rng, swap_prob=0.5)
        assert sorted(result) == items

    def test_drifted_zero_prob_is_identity(self):
        rng = random.Random(1)
        items = [5, 2, 9, 1]
        assert drifted(items, rng, swap_prob=0.0) == items

    def test_drifted_moves_little(self):
        rng = random.Random(1)
        items = list(range(100))
        result = drifted(items, rng, swap_prob=0.15)
        # No element moves more than a couple of slots.
        for position, value in enumerate(result):
            assert abs(position - value) <= 3


class TestSampleConsumers:
    def test_never_includes_producer(self):
        rng = random.Random(2)
        for _ in range(50):
            consumers = sample_consumers(rng, range(16), exclude=3, mean=4.9)
            assert 3 not in consumers

    def test_mean_approximately_respected(self):
        rng = random.Random(3)
        sizes = [
            len(sample_consumers(rng, range(16), exclude=0, mean=4.9))
            for _ in range(400)
        ]
        assert 4.5 < sum(sizes) / len(sizes) < 5.3

    def test_at_least_one_consumer(self):
        rng = random.Random(4)
        assert sample_consumers(rng, range(16), exclude=0, mean=0.1)

    def test_empty_pool(self):
        rng = random.Random(5)
        assert sample_consumers(rng, [7], exclude=7, mean=3.0) == []
