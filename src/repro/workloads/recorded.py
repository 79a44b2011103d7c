"""A workload frozen into plain access streams.

The live workload models (:mod:`repro.workloads`) generate their phases
from an RNG the machine interleaves with its think-time draws, which
makes a run a function of *generation order* as well as content.  The
schedule explorer (:mod:`repro.explore`) needs the opposite: a workload
that is pure data, so that two runs differing only in the delivery
schedule see byte-identical access streams, and so the shrinker can
delete accesses and re-run without disturbing anything else.

:func:`materialize` freezes any workload into a :class:`RecordedWorkload`
by replaying its generators once with dedicated RNG streams (layout and
generation seeds derived from one seed, exactly like the machine derives
its layout RNG).  A recorded workload round-trips through JSON --
``to_dict`` / ``from_dict`` -- so a minimized ``.repro`` artifact can
embed the exact (possibly shrunken) access stream that failed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..errors import WorkloadError
from ..sim.memory_map import Allocator, MemoryMap
from ..sim.params import PAPER_PARAMS
from ..workloads.access import Access, Phase
from .base import Workload

#: XOR'd into the seed for layout draws -- the same constant the machine
#: uses, so a materialized workload sees the layout a live run would.
_LAYOUT_SALT = 0x5EED


class RecordedWorkload(Workload):
    """Plain-data workload: fixed startup and per-iteration phases.

    ``setup`` is a no-op -- block homes are a pure function of the
    address (:meth:`repro.sim.memory_map.MemoryMap.home_of`), so replay
    needs no allocator state.  ``startup``/``iteration`` ignore the RNG
    they are handed; the streams are the streams.
    """

    name = "recorded"
    description = "frozen access streams (schedule exploration / shrinking)"

    def __init__(
        self,
        n_procs: int,
        startup_phases: List[Phase],
        iteration_phases: List[List[Phase]],
        source: str = "recorded",
    ) -> None:
        super().__init__(n_procs=n_procs)
        self.startup_phases = startup_phases
        self.iteration_phases = iteration_phases
        self.source = source
        self.default_iterations = max(1, len(iteration_phases))

    def setup(self, allocator: Allocator, rng: random.Random) -> None:
        pass

    def startup(self, rng: random.Random) -> List[Phase]:
        return self.startup_phases

    def iteration(self, index: int, rng: random.Random) -> List[Phase]:
        if not 1 <= index <= len(self.iteration_phases):
            raise WorkloadError(
                f"recorded workload has {len(self.iteration_phases)} "
                f"iterations; iteration {index} does not exist"
            )
        return self.iteration_phases[index - 1]

    # ------------------------------------------------------------------
    # accounting (the shrinker sizes candidates by access count)
    # ------------------------------------------------------------------

    def total_accesses(self) -> int:
        return sum(
            len(stream)
            for phases in [self.startup_phases, *self.iteration_phases]
            for phase in phases
            for stream in phase
        )

    # ------------------------------------------------------------------
    # JSON round-trip (``.repro`` artifacts embed shrunken workloads)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        def encode(phases: List[Phase]) -> list:
            return [
                [
                    [[a.block, int(a.is_write)] for a in stream]
                    for stream in phase
                ]
                for phase in phases
            ]

        return {
            "n_procs": self.n_procs,
            "source": self.source,
            "startup": encode(self.startup_phases),
            "iterations": [encode(ph) for ph in self.iteration_phases],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RecordedWorkload":
        def decode(phases: list) -> List[Phase]:
            return [
                [
                    [
                        Access(block=block, is_write=bool(is_write))
                        for block, is_write in stream
                    ]
                    for stream in phase
                ]
                for phase in phases
            ]

        return cls(
            n_procs=data["n_procs"],
            startup_phases=decode(data["startup"]),
            iteration_phases=[decode(ph) for ph in data["iterations"]],
            source=data.get("source", "recorded"),
        )


def materialize(
    workload: Workload,
    seed: int,
    iterations: Optional[int] = None,
) -> RecordedWorkload:
    """Freeze ``workload`` into plain access streams, laid out on the
    paper's machine.

    Layout draws come from ``Random(seed ^ 0x5EED)`` (the machine's own
    discipline) and generation draws from a dedicated ``Random(seed)``,
    so the result is deterministic in ``(workload, seed, iterations)``.
    """
    if iterations is None:
        iterations = workload.default_iterations
    if iterations < 1:
        raise WorkloadError("need at least one iteration to materialize")
    layout_rng = random.Random(seed ^ _LAYOUT_SALT)
    workload.setup(Allocator(MemoryMap(PAPER_PARAMS)), layout_rng)
    gen_rng = random.Random(seed)
    startup = workload.startup(gen_rng)
    iteration_phases = [
        workload.iteration(index, gen_rng)
        for index in range(1, iterations + 1)
    ]
    return RecordedWorkload(
        n_procs=workload.n_procs,
        startup_phases=startup,
        iteration_phases=iteration_phases,
        source=workload.name,
    )
