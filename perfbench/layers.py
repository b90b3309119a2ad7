"""Layer map and cProfile folding.

Every package under ``src/repro`` maps to one layer name.  A traced run
is profiled with :mod:`cProfile`; each profiled function's self time and
call count are charged to the layer of the package that defines it.
Functions defined outside ``src/repro`` -- C builtins and the standard
library -- are charged to the layer(s) that called them, in proportion
to the calls (for counts) and the time (for self time) each caller
accounts for.
"""

from __future__ import annotations

import cProfile
import pstats
from fractions import Fraction
from pathlib import Path
from typing import Dict, Tuple

#: ``src/repro/<package>`` -> layer.  The eleven measured layers come
#: first; the rest are packages the benchmark's workloads leave out (or
#: touch only incidentally), mapped so their time is still accounted.
LAYER_MAP: Dict[str, str] = {
    "sim": "sim",
    "net": "net",
    "core": "core",
    "tcp": "tcp",
    "workloads": "workloads",
    "metrics": "metrics",
    "obs": "obs",
    "fluid": "fluid",
    "guard": "guard",
    "control": "control",
    "experiments": "experiments",
    "analysis": "analysis",
    "faults": "faults",
    "recovery": "recovery",
    "runtime": "runtime",
    # Modules directly in src/repro, by module name.
    "__init__": "experiments",
}

#: The layers the benchmark reports per-layer metrics for.
MEASURED_LAYERS = ("sim", "net", "core", "tcp", "workloads", "metrics",
                   "obs", "fluid", "guard", "control", "experiments")

#: Layer for code outside src/repro with no src/repro caller (the
#: benchmark's own frames).
HARNESS = "harness"


class LayerMapError(RuntimeError):
    """A package under src/repro has no layer, or src/repro is missing."""


def check_layer_map(package_root: Path) -> None:
    """Raise unless every package and top-level module under
    ``package_root`` (``src/repro``) has an entry in :data:`LAYER_MAP`."""
    if not (package_root / "__init__.py").is_file():
        raise LayerMapError(f"no Python package at {package_root}")
    names = [child.name for child in package_root.iterdir()
             if child.is_dir() and (child / "__init__.py").is_file()]
    names += [child.stem for child in package_root.glob("*.py")]
    unmapped = sorted(name for name in names if name not in LAYER_MAP)
    if unmapped:
        raise LayerMapError(
            "packages under src/repro with no layer in perfbench/layers.py "
            f"LAYER_MAP: {', '.join(unmapped)}")


FuncKey = Tuple[str, int, str]


class LayerFolder:
    """Folds one profile's functions onto layers."""

    def __init__(self, package_root: Path):
        self._prefix = str(package_root.resolve()) + "/"

    def layer_of_file(self, filename: str) -> str:
        """The layer owning ``filename``, or "" when outside src/repro."""
        if not filename.startswith(self._prefix):
            return ""
        rel = filename[len(self._prefix):]
        package = rel.split("/", 1)[0] if "/" in rel else rel[:-len(".py")]
        try:
            return LAYER_MAP[package]
        except KeyError:
            raise LayerMapError(f"unmapped package for {filename}") from None

    def fold(self, profiler: cProfile.Profile) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls": n, "self_s": t}}`` for one profile.

        Call shares are exact fractions summed in sorted key order, so
        the folded counts repeat bit for bit whenever the program's calls
        do, whatever order the profiler lists its entries in.
        """
        stats = pstats.Stats(profiler).stats
        memo: Dict[FuncKey, Tuple[Dict[str, Fraction], Dict[str, float]]] = {}

        def shares(key: FuncKey, visiting: frozenset):
            """Per-layer fractions of ``key``'s calls and self time."""
            if key in memo:
                return memo[key]
            layer = self.layer_of_file(key[0])
            callers = stats[key][4]
            if layer or not callers:
                owner = layer or HARNESS
                result = ({owner: Fraction(1)}, {owner: 1.0})
                memo[key] = result
                return result
            calls: Dict[str, Fraction] = {}
            time: Dict[str, float] = {}
            total_n = sum(v[1] for v in callers.values())
            total_t = sum(v[2] for v in callers.values())
            for caller in sorted(callers):
                _cc, nc, tt, _ct = callers[caller]
                if caller in visiting or caller not in stats:
                    sub = ({HARNESS: Fraction(1)}, {HARNESS: 1.0})
                else:
                    sub = shares(caller, visiting | {key})
                wn = (Fraction(nc, total_n) if total_n
                      else Fraction(1, len(callers)))
                wt = tt / total_t if total_t else float(wn)
                for name, frac in sub[0].items():
                    calls[name] = calls.get(name, Fraction(0)) + wn * frac
                for name, frac in sub[1].items():
                    time[name] = time.get(name, 0.0) + wt * frac
            result = (calls, time)
            if not visiting:
                memo[key] = result
            return result

        calls: Dict[str, Fraction] = {}
        self_s: Dict[str, float] = {}
        for key in sorted(stats):
            _cc, nc, tt, _ct, _callers = stats[key]
            call_share, time_share = shares(key, frozenset())
            for name, frac in call_share.items():
                calls[name] = calls.get(name, Fraction(0)) + nc * frac
            for name, frac in time_share.items():
                self_s[name] = self_s.get(name, 0.0) + tt * frac
        return {name: {"calls": calls.get(name, Fraction(0)),
                       "self_s": self_s.get(name, 0.0)}
                for name in sorted(set(calls) | set(self_s))}
