"""Output checks: a digest of the simulated statistics plus the
workload's paper-shaped predicates.

A run passes when its digest equals the reference digest (the first run
of the seed in this process, unless one is given) and every predicate
holds.  Host timings never enter the digest, so it must repeat exactly
across runs of one seed, traced or not.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Optional

from scenarios import Outcome


def digest(outcome: Outcome) -> str:
    """sha256 of the run's simulated statistics."""
    payload = {
        "switch_packets": outcome.packets,
        "events": outcome.events,
        "bytes_acked": outcome.bytes_acked,
        "fcts": [repr(f) for f in outcome.fcts],
        "signature": outcome.signature,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


class OutputCheck:
    """Checks each run of one seed against a reference digest."""

    def __init__(self, reference: Optional[str] = None):
        self.reference = reference

    def problems(self, outcome: Outcome) -> List[str]:
        """Why ``outcome`` fails its check (empty when it passes)."""
        found = []
        got = digest(outcome)
        if self.reference is None:
            self.reference = got
        elif got != self.reference:
            found.append(f"digest {got} != reference {self.reference}")
        for name, (holds, observed) in sorted(outcome.predicates.items()):
            if not holds:
                found.append(f"predicate {name} fails (observed {observed!r})")
        return found
