"""Correctness tooling for the AC/DC reproduction.

Two layers, one motivation: the paper's argument (§3.1–3.3) rests on the
vSwitch *exactly* reconstructing and enforcing TCP window state, and the
bug classes that silently corrupt that reconstruction keep recurring —
raw (non-serial) sequence comparisons that break at the 2^32 wrap,
encoded-RWND/wscale rounding errors, and nondeterminism from ad-hoc
RNG or wall-clock use.  This package catches them mechanically:

* **static analyzer** (:mod:`repro.analysis.project` +
  :mod:`repro.analysis.checkers`) — parses each file once into a
  project model (symbol tables, import graph, conservative call graph)
  and runs one catalog of rules over it: the per-file rules RL001–RL006
  (:mod:`repro.analysis.rules`: raw sequence arithmetic, ad-hoc RNG,
  wall-clock reads, timestamp equality, mutable defaults,
  non-snapshot-safe module state) and the cross-file checkers
  RL101–RL104 (determinism taint, trace contract, unguarded hooks,
  snapshot reachability).  Inline suppressions require a written reason
  (RL000 otherwise); findings are cached by content hash and checked
  against a committed baseline: ``python -m repro.analysis analyze src/``.
* **runtime sanitizer** (:mod:`repro.analysis.sanitize`) — opt-in
  invariant probes wrapped around the vSwitch datapath, the simulation
  engine and the switch buffer accounting.  Enabled via
  ``REPRO_SANITIZE=1`` or ``AcdcConfig(sanitize=True)``; zero cost when
  off.  Violations raise :class:`~repro.analysis.sanitize.InvariantViolation`
  carrying the flow key, the sim time and the run seed so every failure
  is replayable.

The package imports none of its submodules: the simulator loads only
:mod:`repro.analysis.sanitize`, and the static analyzer stays out of
every simulation process.  Import from the submodules directly.
"""
