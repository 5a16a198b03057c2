"""Every drop triple over the three registration worlds of
``test_schedules.py``, outside Tier-1 (pytest does not collect this file).

Each triple must keep ``assert_invariants``; the script prints, per world,
how many triples leave ue1 unregistered.  Run it from the repository root:

    PYTHONPATH=src python tests/schedules_depth3.py
"""

import itertools

from test_schedules import WIRE_EVENTS, WORLDS, assert_invariants


def main() -> None:
    for world_name in sorted(WORLDS):
        triples = list(itertools.combinations(range(WIRE_EVENTS[world_name]), 3))
        unregistered = 0
        for drops in triples:
            world, _ = assert_invariants(world_name, drops=drops)
            unregistered += world.entities["ue1"].last_outcome() != "registered"
        print(f"{world_name}: {unregistered} of {len(triples)} drop triples "
              "leave ue1 unregistered")


if __name__ == "__main__":
    main()
