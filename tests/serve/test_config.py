"""ServeConfig validation and the checkpoint-compatibility fingerprint."""

import pytest

from repro.errors import ConfigError
from repro.serve.config import ServeConfig


@pytest.mark.parametrize(
    "kwargs, named",
    [
        ({"shards": 0}, "shards"),
        ({"queue_depth": 0}, "queue_depth"),
        ({"checkpoint_every": 0}, "checkpoint_every"),
        ({"deadline_ms": 0.0}, "deadline_ms"),
    ],
)
def test_validation_names_the_field(kwargs, named):
    with pytest.raises(ConfigError, match=named):
        ServeConfig(**kwargs)


def test_hang_budget_must_cover_the_deadline():
    with pytest.raises(ConfigError, match="hang_timeout_ms"):
        ServeConfig(deadline_ms=500.0, hang_timeout_ms=100.0)


def test_fingerprint_tracks_state_shape_only():
    base = ServeConfig()
    assert base.fingerprint() == ServeConfig().fingerprint()
    # Resharding or recadencing changes which state a checkpoint holds.
    assert base.fingerprint() != ServeConfig(shards=3).fingerprint()
    assert (
        base.fingerprint()
        != ServeConfig(checkpoint_every=128).fingerprint()
    )
    # Latency knobs must not invalidate learned state.
    assert (
        base.fingerprint() == ServeConfig(deadline_ms=100.0).fingerprint()
    )
    assert (
        base.fingerprint() == ServeConfig(queue_depth=64).fingerprint()
    )
