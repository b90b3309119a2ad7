"""CLI driver: ``python -m repro.analysis {analyze,baseline}``.

* ``analyze``  — the static analyzer: per-file rules RL001–RL006 and
  cross-file checkers RL101–RL104 (plus RL000/RL999) in one pass, with
  incremental caching, optional committed baseline, and JSON/SARIF
  output.
* ``baseline`` — regenerate the committed baseline from current
  findings.

Exit status (all subcommands): 0 when clean, 1 when violations were
found, 2 on usage or I/O errors.  Reports are stable across runs
(sorted by file, line, column, code) so CI output can be diffed; the
analyze cache/progress line goes to stderr so stdout stays the report.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .baseline import (DEFAULT_BASELINE_PATH, apply_baseline, load_baseline,
                       write_baseline)
from .cache import AnalysisCache, default_cache_path
from .checkers import CHECKER_CATALOG, AnalyzeConfig, analyze_paths
from .report import format_json, format_report, format_sarif


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Repro-specific static analysis for the AC/DC datapath.")
    sub = parser.add_subparsers(dest="command")

    analyze = sub.add_parser(
        "analyze", help="run every rule (RL001-RL006, RL101-RL104)")
    analyze.add_argument("paths", nargs="*",
                         help="files or directories to analyze "
                              "(default: src/)")
    analyze.add_argument("--select", default="",
                         help="comma-separated rule codes (default: all)")
    analyze.add_argument("--list-rules", action="store_true",
                         help="print the rule catalog and exit")
    analyze.add_argument("--format", choices=("text", "json", "sarif"),
                         default="text", help="report format for stdout")
    analyze.add_argument("--sarif", metavar="PATH",
                         help="additionally write a SARIF 2.1.0 log here")
    analyze.add_argument("--baseline", metavar="PATH", nargs="?",
                         const=DEFAULT_BASELINE_PATH, default=None,
                         help="subtract findings recorded in this baseline "
                              f"(default path: {DEFAULT_BASELINE_PATH})")
    analyze.add_argument("--cache", metavar="PATH",
                         default=default_cache_path(),
                         help="incremental cache file")
    analyze.add_argument("--no-cache", action="store_true",
                         help="analyze cold, without reading or writing "
                              "the cache")
    analyze.add_argument("--stats-json", metavar="PATH",
                         help="write run statistics (parsed/checked/"
                              "from_cache counts) as JSON")

    baseline = sub.add_parser(
        "baseline", help="manage the committed analyze baseline")
    baseline.add_argument("paths", nargs="*",
                          help="package roots to analyze (default: src/)")
    baseline.add_argument("--write", metavar="PATH", nargs="?",
                          const=DEFAULT_BASELINE_PATH, default=None,
                          help="write the baseline covering current "
                               "findings (default path: "
                               f"{DEFAULT_BASELINE_PATH})")
    return parser


def _parse_select(raw: str) -> Optional[tuple]:
    select = tuple(c.strip() for c in raw.split(",") if c.strip())
    unknown = [c for c in select if c not in CHECKER_CATALOG]
    if unknown:
        print(f"repro-analysis: unknown rule(s): {', '.join(unknown)}",
              file=sys.stderr)
        return None
    return select


def _analyze(paths, select, cache):
    config = AnalyzeConfig(select=select)
    return analyze_paths(paths or ["src/"], config, cache=cache)


def _run_analyze(args) -> int:
    if args.list_rules:
        for code in sorted(CHECKER_CATALOG):
            print(f"{code}  {CHECKER_CATALOG[code]}")
        return 0
    select = _parse_select(args.select)
    if select is None:
        return 2
    cache = None if args.no_cache else AnalysisCache(args.cache)
    try:
        violations, stats = _analyze(args.paths, select, cache)
    except OSError as exc:
        print(f"repro-analysis: {exc}", file=sys.stderr)
        return 2
    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except ValueError as exc:
            print(f"repro-analysis: {exc}", file=sys.stderr)
            return 2
        violations, absorbed = apply_baseline(violations, baseline)
        if absorbed:
            print(f"repro-analysis: baseline absorbed {absorbed} "
                  "finding(s)", file=sys.stderr)
    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as fh:
            fh.write(format_sarif(violations, rules=CHECKER_CATALOG))
            fh.write("\n")
    if args.stats_json:
        import json
        with open(args.stats_json, "w", encoding="utf-8") as fh:
            json.dump(stats.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.format == "json":
        print(format_json(violations))
    elif args.format == "sarif":
        print(format_sarif(violations, rules=CHECKER_CATALOG))
    else:
        print(format_report(violations, tool="repro-analysis"))
    print(f"repro-analysis: {stats.modules} module(s), "
          f"{stats.parsed} parsed, {stats.checked} checked, "
          f"{stats.from_cache} from cache", file=sys.stderr)
    return 1 if violations else 0


def _run_baseline(args) -> int:
    try:
        violations, _ = _analyze(args.paths, (), cache=None)
    except OSError as exc:
        print(f"repro-analysis: {exc}", file=sys.stderr)
        return 2
    if args.write is None:
        print(format_report(violations, tool="repro-analysis"))
        print("repro-analysis: re-run with --write to record these "
              "findings as the baseline", file=sys.stderr)
        return 1 if violations else 0
    count = write_baseline(violations, args.write)
    print(f"repro-analysis: wrote baseline with {count} finding(s) "
          f"to {args.write}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze":
        return _run_analyze(args)
    if args.command == "baseline":
        return _run_baseline(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
