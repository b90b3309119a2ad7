"""Same-host, layer-attributed benchmark of the simulator.

Usage::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root.  One invocation runs one workload (see
``scenarios.py``) repeatedly for ``--seconds`` host seconds after one
warm-up run, checks every run's simulated output (``checks.py``) and
prints each metric with its unit, then a final JSON line.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
additionally profiles two runs and reports its per-layer metrics.  The
metric names, units and bounds live in ``BENCHMARK.json``; see
``perfbench/README.md`` for what each one means.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from checks import OutputCheck, digest
from hostspeed import HostSpeed, Kernel
from layers import (MEASURED_LAYERS, LayerFolder, LayerMapError,
                    check_layer_map)
from scenarios import SCENARIOS, Outcome, RunClock, Span, sim_run_clock

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = ROOT / "src" / "repro"
PROBE = Path(__file__).resolve().parent / "probe.py"

#: Timed runs at least, whatever ``--seconds`` says.
MIN_RUNS = 5
#: Fresh-interpreter set-up probes per invocation (after one warm-up).
SETUP_PROBES = 7
#: Profiled runs per traced invocation (their counts must agree).
TRACED_RUNS = 2
#: Seconds one set-up probe may take before it counts as hung.
PROBE_TIMEOUT_S = 60


def host_info() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def pin_to_one_cpu() -> None:
    """Keep this process and its set-up probes on one CPU, so that the
    host-speed kernel samples the core the measured code runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Set-up time: fresh interpreters, stopped at the run loop
# ----------------------------------------------------------------------
def probe_setup(workload: str, seed: int, kernel: Kernel) -> Dict[str, float]:
    """Median set-up split over :data:`SETUP_PROBES` fresh interpreters,
    in reference host seconds.

    The first probe is a warm-up: it may compile bytecode caches, which
    a user pays once, not on every invocation.
    """
    # Let the warm-up probe write bytecode caches, as an installed
    # package has them, whatever the caller's environment says.
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    speed = HostSpeed(kernel, sample_in_run=False)
    samples = []
    for i in range(SETUP_PROBES + 1):
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(PROBE), workload, str(seed)], env=env,
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=False)
        slowdown = speed.close_window()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        marks = json.loads(proc.stdout.strip().splitlines()[-1])
        if i:
            samples.append((marks["imported"] - spawned,
                            marks["entered"] - marks["imported"],
                            marks["entered"] - spawned, slowdown))
    return {
        "import_s": statistics.median(s[0] / s[3] for s in samples),
        "build_s": statistics.median(s[1] / s[3] for s in samples),
        "setup_s": statistics.median(s[2] / s[3] for s in samples),
    }


# ----------------------------------------------------------------------
# Runs and their tally
# ----------------------------------------------------------------------
class Tally:
    """Attempted and failed runs; a run fails if it raises or fails its
    output check."""

    def __init__(self, check: OutputCheck):
        self.check = check
        self.attempted = 0
        self.failed = 0

    def run(self, runner, seed: int, span: Span) -> Optional[Outcome]:
        """One checked run; the outcome, or None if it failed."""
        self.attempted += 1
        try:
            outcome = runner(seed, span)
        except Exception as exc:  # a failed run is counted, not fatal
            self.fail([f"raised {type(exc).__name__}: {exc}"])
            return None
        problems = self.check.problems(outcome)
        if problems:
            self.fail(problems)
            return None
        return outcome

    def fail(self, problems: List[str]) -> None:
        self.failed += 1
        for problem in problems:
            print(f"FAILED run {self.attempted}: {problem}", file=sys.stderr)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Measured:
    """One passing run with its host timings."""

    outcome: Outcome
    #: Host seconds inside ``Simulator.run`` (0 for a profiled run) and
    #: of the whole workload call, host-speed samples excluded.
    run_s: float
    host_wall_s: float
    #: Host-speed slowdown during the run (see ``hostspeed.py``).
    slowdown: float
    #: The run's layer fold, for a profiled run.
    folded: Optional[dict] = None

    @property
    def pkts_per_s(self) -> float:
        """Packets per reference second inside ``Simulator.run``."""
        return self.outcome.packets * self.slowdown / self.run_s

    @property
    def wall_s(self) -> float:
        """Reference seconds of the whole workload call."""
        return self.host_wall_s / self.slowdown

    @property
    def epoch_ms(self) -> List[float]:
        """Reference milliseconds of each timed ``run_epoch``, less the
        run's mean share of host-speed sampling."""
        scale = self.host_wall_s / self.outcome.wall_s / self.slowdown
        return [1e3 * s * scale for s in self.outcome.epoch_s]


def measured_runs(runner, seed: int, tally: Tally, kernel: Kernel,
                  min_runs: int, seconds: float = 0.0,
                  profile: bool = False) -> List[Measured]:
    """Runs until ``seconds`` have passed and ``min_runs`` were made;
    returns the passing ones.  With ``profile`` each run is profiled and
    folded by layer; host speed is then sampled only between runs, and
    ``Simulator.run`` is left unwrapped, so the fold holds no benchmark
    frames."""
    folder = LayerFolder(PACKAGE_ROOT) if profile else None
    measured = []
    clocked = (contextlib.nullcontext(RunClock()) if profile
               else sim_run_clock())
    with clocked as clock:
        speed = HostSpeed(kernel, clock, sample_in_run=not profile)
        deadline = time.perf_counter() + seconds
        runs = 0
        while runs < min_runs or time.perf_counter() < deadline:
            profiler = cProfile.Profile() if profile else None
            before = clock.seconds
            outcome = tally.run(runner, seed, Span(profiler, speed))
            runs += 1
            slowdown = speed.close_window()
            if outcome is not None:
                measured.append(Measured(
                    outcome, clock.seconds - before - speed.paused_in_run_s,
                    outcome.wall_s - speed.paused_s, slowdown,
                    folder.fold(profiler) if folder is not None else None))
    return measured


def determinism_problems(traced: List[Measured]) -> List[str]:
    """Where profiled runs of one seed disagree on ``events_per_pkt`` or
    a layer's ``calls_per_pkt`` (both must repeat bit for bit)."""
    problems = []
    first = traced[0]
    for run in traced[1:]:
        if ((run.outcome.events, run.outcome.packets)
                != (first.outcome.events, first.outcome.packets)):
            problems.append("events_per_pkt differs between traced runs")
        for name in sorted(set(run.folded) | set(first.folded)):
            a = first.folded.get(name, {}).get("calls")
            b = run.folded.get(name, {}).get("calls")
            if a != b:
                problems.append(f"{name}.calls_per_pkt differs between "
                                f"traced runs ({a} != {b} calls)")
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(timed: List[Measured], setup: Dict[str, float],
               tally: Tally) -> Dict[str, float]:
    first = timed[0].outcome
    return {
        "sim_pkts_per_s": statistics.median(r.pkts_per_s for r in timed),
        "wall_s": statistics.median(r.wall_s for r in timed),
        "setup_s": setup["setup_s"],
        "events_per_pkt": first.events / first.packets,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024),
        "ok_frac": 1.0 - tally.failed_frac,
    }


def layer_table(run: Measured) -> Dict[str, Dict[str, float]]:
    """``{layer: {"calls_per_pkt", "self_frac"}}`` for every folded layer."""
    total_s = sum(layer["self_s"] for layer in run.folded.values())
    return {name: {"calls_per_pkt": float(layer["calls"]
                                          / run.outcome.packets),
                   "self_frac": _ratio(layer["self_s"], total_s)}
            for name, layer in run.folded.items()}


def per_layer(timed: List[Measured], traced: List[Measured],
              setup: Dict[str, float], tally: Tally) -> Dict[str, float]:
    outcome = traced[0].outcome
    c = outcome.counters
    pkts = outcome.packets
    tables = [layer_table(run) for run in traced]
    absent = {"calls_per_pkt": 0.0, "self_frac": 0.0}
    metrics: Dict[str, float] = {}
    for name in MEASURED_LAYERS:
        rows = [table.get(name, absent) for table in tables]
        metrics[f"{name}.self_frac"] = statistics.median(
            row["self_frac"] for row in rows)
        metrics[f"{name}.calls_per_pkt"] = rows[0]["calls_per_pkt"]
    epochs_ms = sorted(ms for r in timed for ms in r.epoch_ms)
    fluid_steps = c.get("fluid_steps", 0)
    fluid_s = statistics.median(
        run.folded["fluid"]["self_s"] / run.slowdown
        if "fluid" in run.folded else 0.0 for run in traced)
    metrics.update({
        "core.ops_per_pkt": _ratio(c["ops_total"], c["vswitch_packets"]),
        "tcp.retx_frac": _ratio(c["retx_bytes"],
                                c["retx_bytes"] + c["acked_bytes"]),
        "net.drop_frac": _ratio(c["switch_drops"],
                                c["switch_drops"] + c["switch_tx"]),
        "net.ecn_mark_frac": _ratio(c["switch_marks"], c["switch_tx"]),
        "net.buffer_peak_kb": c["buffer_peak_bytes"] / 1024,
        "sim.cancelled_frac": 1.0 - _ratio(outcome.events, outcome.scheduled),
        "sim.heap_compactions": outcome.heap_compactions,
        "obs.records_per_pkt": _ratio(c.get("trace_recorded", 0), pkts),
        "obs.kept_frac": _ratio(c.get("trace_recorded", 0),
                                c.get("trace_emitted", 0)),
        "obs.int_valid_frac": _ratio(
            c.get("int_reports_ok", 0),
            c.get("int_reports_ok", 0) + c.get("int_reports_invalid", 0)),
        "fluid.steps": fluid_steps,
        "fluid.us_per_step": _ratio(1e6 * fluid_s, fluid_steps),
        "control.epoch_ms_p50": (statistics.median(epochs_ms)
                                 if epochs_ms else 0.0),
        "control.epoch_ms_max": epochs_ms[-1] if epochs_ms else 0.0,
        "workloads.completed_frac": _ratio(c.get("completed", 0),
                                           c.get("arrivals", 0)),
        "setup.import_s": setup["import_s"],
        "setup.build_s": setup["build_s"],
        "trace.overhead_ratio": (statistics.median(r.wall_s for r in traced)
                                 / statistics.median(r.wall_s for r in timed)),
        "host.slowdown": statistics.median(r.slowdown for r in timed),
        "failed_frac": tally.failed_frac,
    })
    return metrics


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    print("host " + json.dumps(host_info(), sort_keys=True))
    pin_to_one_cpu()
    kernel = Kernel()
    setup = probe_setup(workload, seed, kernel)
    runner = SCENARIOS[workload]()
    tally = Tally(OutputCheck())
    measured_runs(runner, seed, tally, kernel, 1)  # warm-up, untimed
    timed = measured_runs(runner, seed, tally, kernel, MIN_RUNS, seconds)
    if not timed:
        print("no run passed its output check", file=sys.stderr)
        return 1
    print(f"digest {workload} seed={seed} {digest(timed[0].outcome)}")
    print("raw sim_pkts_per_s {:.6g} wall_s {:.6g} slowdown {:.4g}".format(
        statistics.median(r.outcome.packets / r.run_s for r in timed),
        statistics.median(r.host_wall_s for r in timed),
        statistics.median(r.slowdown for r in timed)))
    if trace:
        traced = measured_runs(runner, seed, tally, kernel, TRACED_RUNS,
                               profile=True)
        if not traced:
            print("no traced run passed its output check", file=sys.stderr)
            return 1
        problems = determinism_problems(traced)
        if problems:
            tally.fail(problems)
        for name, row in layer_table(traced[0]).items():
            print(f"layer {name:<12} calls_per_pkt={row['calls_per_pkt']:.4f} "
                  f"self_frac={row['self_frac']:.4f}")
        values = per_layer(timed, traced, setup, tally)
    else:
        values = end_to_end(timed, setup, tally)
    metrics = {}
    for entry in wanted:
        value = float(values[entry["name"]])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"metric {entry['name']} {value:.6g} {entry['unit']}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that the output check and the "
                             "determinism check catch perturbed runs")
    args = parser.parse_args(argv)
    try:
        check_layer_map(PACKAGE_ROOT)
    except LayerMapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.selftest:
        from selftest import selftest
        return selftest()
    if args.workload not in SCENARIOS:
        parser.error(f"--workload must be one of {', '.join(SCENARIOS)}")
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
