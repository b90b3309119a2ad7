"""The per-file rule catalog (RL001–RL006) and its AST vocabulary.

Each rule targets a bug class that has already cost a PR to fix by hand
(see DESIGN.md §9).  All of them run inside the whole-program analyzer
(:mod:`repro.analysis.project` records their raw hits while it
summarizes a module; :mod:`repro.analysis.checkers` reports them):

* **RL001 raw-seq-compare** — ordered comparison (``<``/``<=``/``>``/
  ``>=``) or bare subtraction on identifiers that name TCP sequence
  state (``seq``/``ack_seq``/``snd_una``/``snd_nxt``/``edge``...).
  Sequence numbers live in a 32-bit circular space; ordered comparisons
  must go through the RFC 1982 serial helpers (``seq_lt`` & friends in
  ``repro.net.packet``) and distances through ``seq_delta`` or the
  ``(a - b) & SEQ_MASK`` idiom, which the rule recognises as safe.
* **RL002 unseeded-rng** — ``random.Random()`` with no seed, module-level
  ``random.*`` calls (the process-global RNG), or ``random.SystemRandom``:
  all nondeterministic across runs.  Sanctioned path:
  :class:`repro.sim.rng.RngFactory` named streams.
* **RL003 wall-clock** — ``time.time()``/``monotonic()``/``perf_counter``/
  ``datetime.now()`` and friends: simulation code must use the engine
  clock (``sim.now``), never the host's.
* **RL004 float-time-equality** — ``==``/``!=`` between two simulation
  timestamps.  Virtual time is a float; exact equality between computed
  timestamps is a rounding bug waiting to happen (compare with ordering
  or an epsilon).
* **RL005 mutable-default-arg** — a list/dict/set (literal, comprehension
  or constructor) as a parameter default: shared across calls, a classic
  source of cross-flow state bleed.
* **RL006 non-snapshot-safe-state** — state that checkpoint/restore
  (DESIGN.md §13) cannot capture: a module-level mutable registry
  (lowercase module-level name bound to a dict/list/set/deque/
  ``itertools.count``...), a ``global`` statement (the tell-tale of a
  module-level counter being mutated), or a ``random.Random(...)``
  constructed directly instead of drawn from the
  :class:`repro.sim.rng.RngFactory` registry.  A snapshot pickles the
  *object graph reachable from the service*; module globals and private
  RNGs are invisible to it and silently reset on restore.  ALL_CAPS
  module constants are exempt by convention (they are configuration,
  not run state).

RL002, RL003 and the ``Random(...)`` case of RL006 come from the
analyzer's single call classifier (it also feeds RL101's taint
sources); the registry and ``global`` cases of RL006 from its module
symbol table; RL001, RL004 and RL005 from :class:`RuleVisitor` below.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional

RULE_CATALOG: Dict[str, str] = {
    "RL000": "suppression-missing-reason: a `# repro-lint: disable=` "
             "comment must carry a (reason)",
    "RL001": "raw-seq-compare: ordered comparison or bare subtraction on "
             "sequence-space identifiers; use the serial helpers "
             "(seq_lt/seq_delta) or the `(a - b) & SEQ_MASK` idiom",
    "RL002": "unseeded-rng: module-level random.* call, unseeded "
             "random.Random(), or SystemRandom; draw from a named "
             "RngFactory stream instead",
    "RL003": "wall-clock: host clock call (time.time/monotonic/"
             "perf_counter, datetime.now/utcnow/today); simulation code "
             "must use the engine clock",
    "RL004": "float-time-equality: ==/!= between two simulation "
             "timestamps; compare with ordering or an epsilon",
    "RL005": "mutable-default-arg: mutable default parameter value is "
             "shared across calls",
    "RL006": "non-snapshot-safe-state: module-level mutable registry, "
             "global-statement counter, or direct random.Random "
             "construction outside sim.rng; invisible to "
             "checkpoint/restore",
    "RL999": "parse-error: file could not be parsed",
}


@dataclass(frozen=True, order=True)
class Violation:
    """One finding, ordered for the stable report format."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


# --- RL001: identifiers that name 32-bit sequence-space values ----------
#: An identifier is "sequence-like" when one of its snake_case tokens is a
#: sequence-space word.  `newly_acked`, `dupacks`, `ack_count` (byte/event
#: counts) deliberately do not match; `ack_seq`, `snd_una`, `cut_seq`,
#: `advertised_edge`, `window_end`'s partner `snd_una` do.
_SEQ_TOKENS = {"seq", "una", "nxt", "edge", "iss", "irs"}

#: Time-like identifiers for RL004: the engine clock and derived stamps.
_TIME_EXACT = {"now", "deadline"}
_TIME_SUFFIXES = ("_at", "_time", "_deadline", "_timestamp")

_SNAKE_SPLIT = re.compile(r"[^a-zA-Z0-9]+")


def terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_seq_name(node: ast.AST) -> bool:
    name = terminal_name(node)
    if name is None:
        return False
    if name.isupper():
        # ALL_CAPS names are the sequence-space *constants* (SEQ_MASK,
        # SEQ_HALF...) that the sanctioned wrap-safe idioms are built
        # from, not sequence-number variables.
        return False
    tokens = [t for t in _SNAKE_SPLIT.split(name.lower()) if t]
    return any(tok in _SEQ_TOKENS for tok in tokens)


def _is_time_name(node: ast.AST) -> bool:
    name = terminal_name(node)
    if name is None:
        return False
    lowered = name.lower()
    return lowered in _TIME_EXACT or lowered.endswith(_TIME_SUFFIXES)


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        callee = terminal_name(node.func)
        return callee in {"list", "dict", "set", "bytearray",
                          "deque", "defaultdict", "OrderedDict", "Counter"}
    return False


#: RL006: stateful-iterator constructors — a module-level
#: ``itertools.count()`` is a registry of one mutable cursor.
_STATEFUL_ITER_CALLEES = {"count", "cycle", "chain", "repeat"}


def is_registry_value(node: ast.AST) -> bool:
    """Mutable containers *or* stateful iterators: module-level run
    state (RL006, and the registry aliases RL104 looks for)."""
    if _is_mutable_literal(node):
        return True
    if isinstance(node, ast.Call):
        return terminal_name(node.func) in _STATEFUL_ITER_CALLEES
    return False


class RuleVisitor(ast.NodeVisitor):
    """Single pass recording raw RL001/RL004/RL005 hits.

    Each hit is a plain-JSON ``[code, line, col, message]`` row, so the
    module summary (and with it the incremental cache) can hold them.
    ``seq_exempt`` drops RL001 for the serial-arithmetic helpers module.
    """

    def __init__(self, seq_exempt: bool = False) -> None:
        self.seq_exempt = seq_exempt
        self.hits: List[list] = []
        self._parents: Dict[int, ast.AST] = {}

    # ------------------------------------------------------------------
    def _emit(self, code: str, node: ast.AST, message: str) -> None:
        if code == "RL001" and self.seq_exempt:
            return
        self.hits.append([code, node.lineno, node.col_offset, message])

    def generic_visit(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self._parents[id(child)] = node
        super().generic_visit(node)

    # ------------------------------------------------------------------
    # RL001 + RL004: comparisons
    # ------------------------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                seq = left if _is_seq_name(left) else right
                if _is_seq_name(seq):
                    self._emit(
                        "RL001", node,
                        "ordered comparison on sequence-space identifier "
                        f"'{terminal_name(seq)}' "
                        "(use seq_lt/seq_leq/seq_gt/seq_geq)")
            elif isinstance(op, (ast.Eq, ast.NotEq)):
                if _is_time_name(left) and _is_time_name(right):
                    self._emit(
                        "RL004", node,
                        "exact float equality between sim timestamps "
                        f"'{terminal_name(left)}' and '{terminal_name(right)}'")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # RL001: bare subtraction on sequence identifiers
    # ------------------------------------------------------------------
    def visit_BinOp(self, node: ast.BinOp) -> None:
        if (isinstance(node.op, ast.Sub)
                and (_is_seq_name(node.left) or _is_seq_name(node.right))
                and not self._is_masked(node)):
            name = (terminal_name(node.left) if _is_seq_name(node.left)
                    else terminal_name(node.right))
            self._emit(
                "RL001", node,
                f"bare subtraction on sequence-space identifier '{name}' "
                "(use seq_delta, or mask with `& SEQ_MASK`)")
        self.generic_visit(node)

    def _is_masked(self, node: ast.BinOp) -> bool:
        """True for the wrap-safe ``(a - b ...) & SEQ_MASK`` idiom: the
        subtraction sits (possibly under further +/- terms) below a
        bitwise-and whose other operand mentions SEQ_MASK."""
        child: ast.AST = node
        parent = self._parents.get(id(child))
        while isinstance(parent, ast.BinOp):
            if isinstance(parent.op, ast.BitAnd):
                other = parent.right if parent.left is child else parent.left
                return terminal_name(other) == "SEQ_MASK"
            if not isinstance(parent.op, (ast.Add, ast.Sub)):
                return False
            child = parent
            parent = self._parents.get(id(child))
        return False

    # ------------------------------------------------------------------
    # RL005: mutable default arguments
    # ------------------------------------------------------------------
    def _check_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None]:
            if _is_mutable_literal(default):
                self._emit("RL005", default,
                           "mutable default argument is shared across calls "
                           "(default to None and construct inside)")
        self.generic_visit(node)

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = \
        _check_defaults
