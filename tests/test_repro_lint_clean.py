"""The source tree itself must be clean under the per-file rules.

Tier-1 twin of the CI per-layer steps ``python -m repro.analysis analyze
<path> --select RL001,RL002,RL003,RL004,RL005,RL006``: any new raw
sequence comparison, ad-hoc RNG, wall-clock read, timestamp equality,
mutable default or non-snapshot-safe module state landing in
``src/repro`` fails here with the full file:line report.  RL000 and
RL999 are reported whatever the selection.
"""

import os

from repro.analysis.checkers import AnalyzeConfig, analyze_paths
from repro.analysis.report import format_report

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "repro")
PER_FILE = ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006")


def _per_file_findings():
    violations, _ = analyze_paths([SRC], AnalyzeConfig(select=PER_FILE))
    return violations


def test_source_tree_is_lint_clean():
    violations = _per_file_findings()
    assert violations == [], "\n" + format_report(violations)


def test_suppressions_in_tree_all_carry_reasons():
    # RL000 findings would already fail the test above; this documents
    # the intent explicitly: a bare `disable=` never lands in-tree.
    assert not [v for v in _per_file_findings() if v.code == "RL000"]
