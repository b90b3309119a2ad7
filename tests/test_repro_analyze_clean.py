"""The source tree itself must be analyzer clean.

Tier-1 twin of the CI step ``python -m repro.analysis analyze src/``:
any new raw sequence comparison, ad-hoc RNG, wall-clock read, timestamp
equality, mutable default or non-snapshot-safe module state (RL001–
RL006), and any cross-file determinism leak, trace-schema drift,
unguarded zero-cost-off hook or unpicklable callable in checkpointed
state (RL101–RL104) landing in ``src/repro`` fails here with the full
file:line report.  The committed baseline is *empty* — every finding
must be fixed (or suppressed with a written reason), never
grandfathered.
"""

import json
import os

from repro.analysis.checkers import analyze_paths
from repro.analysis.report import format_report

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "repro")


def test_source_tree_is_analyzer_clean():
    violations, stats = analyze_paths([SRC])
    assert violations == [], "\n" + format_report(
        violations, tool="repro-analysis")
    assert stats.modules > 50  # the walk actually covered the tree


def test_committed_baseline_is_empty():
    with open(os.path.join(REPO, ".repro-analysis-baseline.json")) as fh:
        baseline = json.load(fh)
    assert baseline["findings"] == {}
