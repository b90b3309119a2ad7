"""Incremental-cache and baseline tests for the whole-program analyzer.

The cache contract: a warm rerun with nothing changed parses and checks
nothing; touching one module re-checks exactly its reverse-import
closure; findings served from cache are identical to a cold run; and
any epoch change (config, schemas, picklable set) re-checks everything
while still reusing content-hashed summaries.
"""

import textwrap

from repro.analysis.baseline import (apply_baseline, load_baseline,
                                     write_baseline)
from repro.analysis.cache import AnalysisCache
from repro.analysis.checkers import AnalyzeConfig, analyze_paths


def write_pkg(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


_TREE = {
    "pkg/__init__.py": "",
    "pkg/a.py": """\
        def f():
            return 1
        """,
    "pkg/b.py": "from .a import f\n",
    # c carries a finding so cached-findings reuse is observable.
    "pkg/c.py": """\
        import time


        class M:
            def tick(self):
                self.t0 = time.time()
        """,
}


def _run(root, cache, select=("RL101",)):
    return analyze_paths([str(root / "pkg")],
                         AnalyzeConfig(select=select), cache=cache)


def test_warm_run_checks_nothing_and_findings_match(tmp_path):
    root = write_pkg(tmp_path, _TREE)
    cache_path = str(tmp_path / "cache.json")
    cold, cold_stats = _run(root, AnalysisCache(cache_path))
    assert cold_stats.checked == cold_stats.modules == 4
    assert [v.code for v in cold] == ["RL101"]

    warm, warm_stats = _run(root, AnalysisCache(cache_path))
    assert warm_stats.parsed == 0
    assert warm_stats.checked == 0
    assert warm_stats.from_cache == 4
    assert warm == cold


def test_touching_one_module_rechecks_its_reverse_closure(tmp_path):
    root = write_pkg(tmp_path, _TREE)
    cache_path = str(tmp_path / "cache.json")
    _run(root, AnalysisCache(cache_path))

    a = root / "pkg" / "a.py"
    a.write_text(a.read_text() + "\n# touched\n")
    findings, stats = _run(root, AnalysisCache(cache_path))
    # a changed; b imports a; __init__ and c are untouched.
    assert stats.parsed == 1
    assert stats.checked == 2
    assert stats.from_cache == 2
    assert [v.code for v in findings] == ["RL101"]


def test_epoch_change_invalidates_findings_not_summaries(tmp_path):
    root = write_pkg(tmp_path, _TREE)
    cache_path = str(tmp_path / "cache.json")
    _run(root, AnalysisCache(cache_path), select=("RL101",))

    _findings, stats = _run(root, AnalysisCache(cache_path),
                            select=("RL101", "RL104"))
    assert stats.parsed == 0          # summaries depend only on content
    assert stats.reused == 4
    assert stats.checked == 4         # findings re-derived under new epoch
    assert stats.from_cache == 0


def test_per_file_finding_is_cached_and_rechecked_after_edit(tmp_path):
    root = write_pkg(tmp_path, dict(_TREE, **{
        "pkg/d.py": "def gap(snd_nxt, snd_una):\n"
                    "    return snd_nxt - snd_una\n"}))
    cache_path = str(tmp_path / "cache.json")
    select = ("RL001", "RL101")
    cold, _ = _run(root, AnalysisCache(cache_path), select=select)
    assert sorted(v.code for v in cold) == ["RL001", "RL101"]

    warm, stats = _run(root, AnalysisCache(cache_path), select=select)
    assert stats.parsed == 0 and stats.checked == 0
    assert warm == cold

    d = root / "pkg" / "d.py"
    d.write_text("def gap(snd_nxt, snd_una):\n"
                 "    return (snd_nxt - snd_una) & SEQ_MASK\n")
    fixed, stats = _run(root, AnalysisCache(cache_path), select=select)
    assert stats.parsed == 1 and stats.checked == 1
    assert [v.code for v in fixed] == ["RL101"]


def test_corrupt_cache_file_falls_back_to_cold(tmp_path):
    root = write_pkg(tmp_path, _TREE)
    cache_path = tmp_path / "cache.json"
    cache_path.write_text("{not json")
    findings, stats = _run(root, AnalysisCache(str(cache_path)))
    assert stats.checked == 4
    assert [v.code for v in findings] == ["RL101"]


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------
def test_baseline_absorbs_recorded_findings_but_not_new_ones(tmp_path):
    root = write_pkg(tmp_path, _TREE)
    findings, _ = _run(root, cache=None)
    assert len(findings) == 1

    baseline_path = str(tmp_path / "baseline.json")
    write_baseline(findings, baseline_path)
    baseline = load_baseline(baseline_path)
    kept, absorbed = apply_baseline(findings, baseline)
    assert kept == [] and absorbed == 1

    # A second identical finding in the same file is NEW: the count
    # bounds how many the baseline absorbs.
    doubled = findings + findings
    kept, absorbed = apply_baseline(doubled, baseline)
    assert len(kept) == 1 and absorbed == 1


def test_missing_baseline_is_empty(tmp_path):
    assert load_baseline(str(tmp_path / "nope.json")) == {}
