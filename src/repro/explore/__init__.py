"""Adversarial schedule exploration with invariant oracles.

The explorer drives the simulated machine through *chosen* message
delivery orders instead of the network's natural FIFO timing, watching
invariant oracles the whole way, and packages any violation as a
replayable, shrinkable ``.repro`` artifact:

* :mod:`~repro.explore.strategies` -- delivery-order policies
  (random-walk, PCT, delay-bounded, FIFO, replay-from-log);
* :mod:`~repro.explore.network` -- the scheduler seam: an interconnect
  whose delivery order is the policy's to pick, with fault injection
  composing underneath;
* :mod:`~repro.explore.oracles` -- coherence, quiescence, liveness,
  predictor-balance, and the opt-in overtake oracle;
* :mod:`~repro.explore.runner` -- episode campaigns, budgets,
  checkpoint forking, and byte-identical replay;
* :mod:`~repro.explore.shrink` -- delta debugging over decision logs
  and access streams;
* :mod:`~repro.explore.artifact` -- the ``.repro`` on-disk format;
* :mod:`~repro.explore.cli` -- the ``repro-explore`` command.
"""

from .._lazy import lazy_exports

# ``shrink`` names both a function and the submodule defining it.  Were
# it lazy, the first ``import repro.explore.shrink`` would bind the
# module over the function's name, so this one submodule loads eagerly.
from .shrink import ShrinkResult, ddmin, shrink

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".artifact": ("ExploreArtifact", "load_artifact", "save_artifact"),
        ".network": ("DEFAULT_DEFER_CAP", "ExploringNetwork"),
        ".oracles": ("DEFAULT_ORACLES", "Oracle", "parse_oracles"),
        ".runner": (
            "ExploreConfig",
            "ExploreReport",
            "EpisodeResult",
            "ReplayResult",
            "explore",
            "replay_artifact",
        ),
        ".shrink": ("ShrinkResult", "ddmin", "shrink"),
        ".strategies": (
            "DEFER_REST",
            "STRATEGIES",
            "DeliveryPolicy",
            "DelayBoundedPolicy",
            "FifoPolicy",
            "PCTPolicy",
            "RandomWalkPolicy",
            "ReplayPolicy",
            "make_policy",
        ),
    },
)
