"""Every drop triple over the three registration worlds of
``test_schedules.py``, outside Tier-1 (pytest does not collect this file).

Each triple must keep ``assert_invariants``; the script prints, per world,
how many triples leave ue1 unregistered, and exits 1 if any world's count
is above its ceiling.  A change that lowers a count lowers its ceiling
with it.  Run it from the repository root:

    PYTHONPATH=src python tests/schedules_depth3.py
"""

import itertools
import sys

from test_schedules import WIRE_EVENTS, WORLDS, assert_invariants

# per world, the most drop triples that may leave ue1 unregistered
CEILINGS = {"nsa": 1_222, "roaming": 5_971, "single": 2_088}


def main() -> int:
    over = []
    for world_name in sorted(WORLDS):
        triples = list(itertools.combinations(range(WIRE_EVENTS[world_name]), 3))
        unregistered = 0
        for drops in triples:
            world, _ = assert_invariants(world_name, drops=drops)
            unregistered += world.entities["ue1"].last_outcome() != "registered"
        print(f"{world_name}: {unregistered} of {len(triples)} drop triples "
              f"leave ue1 unregistered (ceiling {CEILINGS[world_name]})")
        if unregistered > CEILINGS[world_name]:
            over.append(world_name)
    if over:
        print(f"above the ceiling: {', '.join(over)}", file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
