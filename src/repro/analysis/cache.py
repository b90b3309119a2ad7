"""Content-hash incremental cache for the whole-program analyzer.

One JSON file (default ``.repro-analysis-cache.json``, overridable via
``--cache`` or ``$REPRO_ANALYSIS_CACHE``) holding, per module:

* the **summary** (sha256 + extracted facts) — reused by
  :func:`repro.analysis.project.build_project` whenever the file's
  content hash still matches, skipping the parse entirely;
* the **post-suppression findings** — reused by
  :func:`repro.analysis.checkers.analyze_paths` for modules outside the
  reverse-import closure of the changed set.

Findings are only reused when the stored *epoch* matches: the epoch
hashes the analyzer version, checker config, merged event schemas and
the picklable set, i.e. every global input a module's findings can
depend on besides its own content and its imports.  A config change, a
schema change, or a shift in what the pickle roots reach therefore
invalidates findings wholesale while still reusing summaries (which
depend only on file content).

The cache is an optimisation, never an input: a corrupt or
wrong-version file is silently discarded and the run proceeds cold.
The file is machine-local state and belongs in ``.gitignore``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from .project import Project
from .rules import Violation

#: Bump when the file layout or summary shape changes (discards it).
CACHE_VERSION = 2
DEFAULT_CACHE_PATH = ".repro-analysis-cache.json"
CACHE_ENV_VAR = "REPRO_ANALYSIS_CACHE"


def default_cache_path() -> str:
    return os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_PATH)


def _violation_to_json(v: Violation) -> list:
    return [v.path, v.line, v.col, v.code, v.message]


def _violation_from_json(row: list) -> Violation:
    return Violation(path=row[0], line=row[1], col=row[2],
                     code=row[3], message=row[4])


class AnalysisCache:
    """Load/store wrapper around the cache file."""

    def __init__(self, path: Optional[str] = None):
        self.path = path if path is not None else default_cache_path()
        self._data = self._load()

    def _load(self) -> dict:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return {}
        if not isinstance(data, dict) \
                or data.get("version") != CACHE_VERSION:
            return {}
        return data

    # ------------------------------------------------------------------
    def summaries(self) -> Dict[str, dict]:
        """abs path -> summary JSON (content-hash validated by caller)."""
        out: Dict[str, dict] = {}
        for entry in self._data.get("modules", {}).values():
            summary = entry.get("summary")
            if summary and "path" in summary:
                out[os.path.abspath(summary["path"])] = summary
        return out

    def findings(self, epoch: str) -> Dict[str, List[Violation]]:
        """module -> cached findings, only when the epoch matches."""
        if self._data.get("epoch") != epoch:
            return {}
        out: Dict[str, List[Violation]] = {}
        for name, entry in self._data.get("modules", {}).items():
            rows = entry.get("findings")
            if rows is not None:
                out[name] = [_violation_from_json(row) for row in rows]
        return out

    # ------------------------------------------------------------------
    def store(self, project: Project, epoch: str,
              by_module: Dict[str, List[Violation]]) -> None:
        modules: Dict[str, dict] = {}
        for name, summary in project.modules.items():
            modules[name] = {
                "summary": summary.to_json(),
                "findings": [_violation_to_json(v)
                             for v in by_module.get(name, [])],
            }
        payload = {"version": CACHE_VERSION, "epoch": epoch,
                   "modules": modules}
        tmp = f"{self.path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, self.path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        self._data = payload
