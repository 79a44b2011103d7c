"""Overhead guards: checkpointing, restored machines and the watchdog.

The robustness bar: checkpointing at the documented cadence (every
~half-run for a paper-scale workload; see docs/robustness.md) must spend
at most 5% of wall time inside the checkpoint machinery, a machine
restored from a checkpoint must run its remaining iterations at most
10% slower than one never checkpointed, and an armed watchdog must
leave the events unchanged and cost at most 15% of CPU time.

The checkpoint guard is computed from the run's own
``checkpoint.capture`` / ``checkpoint.save`` / ``checkpoint.restore``
timers divided by the run's wall time -- a same-run ratio, immune to
the cross-run variance that makes wall-to-wall comparisons of
second-long runs flaky in CI.  The restored-speed guard runs a restored
and an uninterrupted machine in one process, alternating iteration by
iteration, so machine-wide load drifts hit both alike.
The watchdog guard does the same for a plain and a guarded machine,
over several runs, with the garbage collector paused while it times
them.  Each guard prints its reading (``pytest -rP`` shows it).
"""

import gc
import time

from repro.experiments.common import iterations_for, workload_for
from repro.sim.checkpoint import capture, restore, simulate_with_checkpoints
from repro.sim.machine import Machine, simulate
from repro.sim.metrics import METRICS
from repro.sim.watchdog import DEFAULT_WATCHDOG, Watchdog

APP = "moldyn"
SEED = 0
#: The documented paper-scale cadence: a couple of checkpoints per run,
#: each costing tens of milliseconds against seconds of simulation.
EVERY = 30
MAX_OVERHEAD = 0.05
#: A restored machine may run its iterations at most this much slower.
#: Unpickled the default way, CPython 3.11 and 3.12 give it a
#: ``__dict__`` per object and it runs 13-23% slower.
MAX_RESTORED_SLOWDOWN = 0.10
RESTORED_ITERATIONS = 40
ROUNDS = 3


def test_checkpoint_overhead(tmp_path):
    workload = workload_for(APP, quick=False)
    iterations = iterations_for(APP, quick=False)
    plain = simulate(workload, iterations=iterations, seed=SEED)

    METRICS.reset()
    start = time.perf_counter()
    collector = simulate_with_checkpoints(
        workload,
        iterations=iterations,
        seed=SEED,
        checkpoint_dir=tmp_path,
        every=EVERY,
    )
    wall_s = time.perf_counter() - start
    assert list(collector.events) == list(plain.events)

    timers = METRICS.snapshot()["timers"]
    spent = sum(
        timers.get(name, {}).get("seconds", 0.0)
        for name in (
            "checkpoint.capture", "checkpoint.save", "checkpoint.restore"
        )
    )
    saves = timers.get("checkpoint.save", {}).get("count", 0)
    assert saves == iterations // EVERY
    overhead = spent / wall_s
    print(
        f"checkpoint machinery: {spent:.3f}s of {wall_s:.3f}s "
        f"({100 * overhead:.1f}%)"
    )
    assert overhead <= MAX_OVERHEAD, (
        f"checkpoint machinery took {100 * overhead:.1f}% of the run "
        f"({spent:.3f}s of {wall_s:.3f}s across {saves} checkpoints; "
        f"budget {100 * MAX_OVERHEAD:.0f}% at every={EVERY})"
    )


def test_restored_machine_keeps_its_speed():
    def after_first_iteration():
        machine = Machine(seed=SEED)
        workload = workload_for(APP, quick=True)
        machine.begin_workload(workload, RESTORED_ITERATIONS)
        machine.run_iteration(workload, 1)
        return machine, workload

    plain = after_first_iteration()
    restored = restore(
        capture(*after_first_iteration(), 2, RESTORED_ITERATIONS)
    )

    seconds = [0.0, 0.0]
    for index in range(2, RESTORED_ITERATIONS + 1):
        order = (0, 1) if index % 2 else (1, 0)
        for which in order:
            machine, workload = (plain, restored)[which]
            start = time.process_time()
            machine.run_iteration(workload, index)
            seconds[which] += time.process_time() - start
    plain_s, restored_s = seconds
    assert list(restored[0].finish_workload().events) == list(
        plain[0].finish_workload().events
    )

    slowdown = restored_s / plain_s - 1.0
    print(
        f"restored machine: {restored_s:.3f}s vs {plain_s:.3f}s "
        f"({100 * slowdown:+.1f}%)"
    )
    assert slowdown <= MAX_RESTORED_SLOWDOWN, (
        f"restored machine ran {100 * slowdown:.1f}% slower "
        f"({restored_s:.3f}s vs {plain_s:.3f}s; "
        f"budget {100 * MAX_RESTORED_SLOWDOWN:.0f}%)"
    )


def test_watchdog_overhead():
    iterations = iterations_for(APP, quick=True)

    def begun(watchdog=None):
        machine = Machine(seed=SEED, watchdog=watchdog)
        workload = workload_for(APP, quick=True)
        machine.begin_workload(workload, iterations)
        return machine, workload

    seconds = [0.0, 0.0]
    for _ in range(ROUNDS):
        runs = (begun(), begun(Watchdog(DEFAULT_WATCHDOG)))
        # A collection bills whichever side triggers it for both sides'
        # garbage; after a heap-heavy test that skewed the reading by
        # up to -20%, so the timed iterations run without one.
        gc.collect()
        gc.disable()
        try:
            for index in range(1, iterations + 1):
                order = (0, 1) if index % 2 else (1, 0)
                for which in order:
                    machine, workload = runs[which]
                    start = time.process_time()
                    machine.run_iteration(workload, index)
                    seconds[which] += time.process_time() - start
        finally:
            gc.enable()
        plain, guarded = (machine.finish_workload() for machine, _ in runs)
        assert list(guarded.events) == list(plain.events)
    plain_s, guarded_s = seconds

    overhead = guarded_s / plain_s - 1.0
    print(
        f"watchdog: {guarded_s:.3f}s guarded vs {plain_s:.3f}s plain "
        f"({100 * overhead:+.1f}%)"
    )
    # Allowance is 3x the 5% budget: the guard's own cost is ~10% on
    # quick moldyn (docs/robustness.md has the measurements).
    assert overhead <= MAX_OVERHEAD * 3, (
        f"watchdog guard cost {100 * overhead:.1f}% "
        f"(allowance {100 * MAX_OVERHEAD * 3:.0f}%)"
    )
