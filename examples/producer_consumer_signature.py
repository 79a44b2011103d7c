#!/usr/bin/env python
"""The paper's Figure 2/3 walkthrough: signatures and the two-level tables.

Simulates the producer-consumer microworkload (one shared counter), shows
the message signature each module observes, then peeks inside a Cosmos
predictor -- the Message History Register and Pattern History Table of
Figure 3 -- while it locks onto the pattern.

    python examples/producer_consumer_signature.py
"""

from repro.analysis import extract_signatures, measure_arcs
from repro.core import CosmosConfig, CosmosPredictor, format_tuple
from repro.core.tuples import format_pattern
from repro.experiments import ProducerConsumerMicro
from repro.protocol import Role
from repro.sim import simulate
from repro.trace import by_block, by_node, by_role


def main() -> None:
    workload = ProducerConsumerMicro(n_consumers=1)
    trace = simulate(workload, iterations=25, seed=0)
    events = trace.events
    print(
        f"producer = P{workload.producer}, "
        f"consumer = P{workload.consumers[0]}, "
        f"home directory = P0, {len(events)} messages\n"
    )

    # --- Figure 2: the signatures -------------------------------------
    arcs = measure_arcs(events, depth=1, min_ref_percent=0.0)
    for role, signature in extract_signatures(arcs).items():
        if signature:
            print(f"dominant signature {signature}")
    print()

    # --- Figure 3: inside the predictor --------------------------------
    # Feed the directory's message stream for the shared block into one
    # Cosmos predictor by hand and watch it converge.
    directory_stream = list(
        by_block(by_role(by_node(events, 0), Role.DIRECTORY), workload.block)
    )
    predictor = CosmosPredictor(CosmosConfig(depth=1))
    print("directory-side predictions for the shared counter block")
    print("(first 12 messages shown; the predictor sees the whole run):")
    print(f"{'incoming message':>34s}   {'prediction was':>30s}  hit?")
    for index, event in enumerate(directory_stream):
        predicted = predictor.predict(event.block)
        observation = predictor.observe(event.block, event.tuple)
        if index < 12:
            shown = format_tuple(predicted) if predicted else "(no prediction)"
            print(
                f"{format_tuple(event.tuple):>34s}   {shown:>30s}  "
                f"{'yes' if observation.hit else 'no'}"
            )

    # Dump the learned Pattern History Table (Figure 3b).
    print("\nlearned PHT for the block (pattern -> prediction):")
    table = predictor.pattern_table(workload.block)
    for pattern, (prediction, _counter) in sorted(table.items()):
        shown = format_pattern(pattern)
        print(f"  {shown:>34s} -> {format_tuple(prediction)}")

    accuracy = predictor.accuracy
    print(f"\ndirectory-side accuracy over the whole run: {accuracy:.1%}")


if __name__ == "__main__":
    main()
