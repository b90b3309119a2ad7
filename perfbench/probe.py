"""Set-up probe: one workload in a fresh interpreter, up to the run loop.

Usage: ``python3 perfbench/probe.py <workload> <seed>``.  Imports the
workload's ``repro`` entry points, builds its topology, vSwitches and
apps, and exits on entering ``Simulator.run``.  Prints one JSON line of
``time.monotonic()`` readings -- after the import and at loop entry --
which the caller subtracts from its own reading taken before spawning
this process.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


class _LoopEntered(Exception):
    """Raised at ``Simulator.run`` entry to stop the probe there."""


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import scenarios

    runner = scenarios.SCENARIOS[name]()
    imported = time.monotonic()
    from repro.sim.engine import Simulator

    def enter(self, *args, **kwargs):
        raise _LoopEntered(time.monotonic())

    Simulator.run = enter
    try:
        runner(seed, scenarios.Span())
    except _LoopEntered as entered:
        print(json.dumps({"imported": imported, "entered": entered.args[0]}))
        return 0
    print(f"{name}: Simulator.run was never entered", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
