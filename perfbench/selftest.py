"""Self-test: the benchmark's checks catch what they are meant to catch.

Run with ``python3 perfbench/run.py --selftest``.  On one workload it

* runs the workload untraced and traced (twice) on one seed and expects
  every run to pass, the digests to agree, and ``events_per_pkt`` and
  every layer's ``calls_per_pkt`` to repeat bit for bit;
* replays that run with a perturbed reference digest, with a failing
  predicate, and as a raising run, and expects each to be counted in
  ``failed_frac``;
* perturbs one layer's call count and the event count of a traced run
  and expects the determinism check to flag each;
* expects the layer-map check to refuse a package it has no layer for.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path
from typing import Callable, List

from checks import OutputCheck, digest
from hostspeed import Kernel
from layers import LayerMapError, check_layer_map
from run import TRACED_RUNS, Tally, determinism_problems, measured_runs
from scenarios import SCENARIOS

WORKLOAD = "incast-dctcp"
SEED = 7


def _failed_frac(runner, check: OutputCheck) -> float:
    tally = Tally(check)
    tally.run(runner, SEED, None)
    return tally.failed_frac


def selftest() -> int:
    results: List[tuple] = []

    def expect(name: str, ok: bool) -> None:
        results.append((name, ok))
        print(f"selftest {'ok  ' if ok else 'FAIL'} {name}")

    runner = SCENARIOS[WORKLOAD]()
    tally = Tally(OutputCheck())
    kernel = Kernel()
    timed = measured_runs(runner, SEED, tally, kernel, 2)
    traced = measured_runs(runner, SEED, tally, kernel, TRACED_RUNS,
                           profile=True)
    expect("every unperturbed run passes", tally.failed == 0)
    if tally.failed:
        return 1
    outcome = timed[0].outcome
    expect("traced and untraced digests agree",
           len({digest(r.outcome) for r in timed + traced}) == 1)
    expect("events and calls per packet repeat across traced runs",
           determinism_problems(traced) == [])

    def replay(perturbed) -> Callable:
        return lambda seed, span: perturbed

    def raising(seed, span):
        raise RuntimeError("perturbed run")

    failing = dataclasses.replace(outcome, predicates={
        **outcome.predicates, "perturbed": (False, None)})
    expect("unperturbed replay passes",
           _failed_frac(replay(outcome), OutputCheck(digest(outcome))) == 0.0)
    expect("perturbed digest counts as failed",
           _failed_frac(replay(outcome), OutputCheck("0" * 64)) == 1.0)
    expect("failing predicate counts as failed",
           _failed_frac(replay(failing), OutputCheck(digest(outcome))) == 1.0)
    expect("raising run counts as failed",
           _failed_frac(raising, OutputCheck()) == 1.0)

    first = traced[0]
    bumped = {name: dict(layer) for name, layer in first.folded.items()}
    bumped["sim"]["calls"] += 1
    expect("perturbed calls_per_pkt is flagged", determinism_problems(
        [first, dataclasses.replace(first, folded=bumped)]) != [])
    more_events = dataclasses.replace(
        first.outcome, events=first.outcome.events + 1)
    expect("perturbed events_per_pkt is flagged", determinism_problems(
        [first, dataclasses.replace(first, outcome=more_events)]) != [])

    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        package = Path(tmp) / "repro"
        (package / "newtier").mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "newtier" / "__init__.py").write_text("")
        try:
            check_layer_map(package)
            refused = False
        except LayerMapError:
            refused = True
    expect("unmapped package is refused", refused)

    return 0 if all(ok for _, ok in results) else 1
