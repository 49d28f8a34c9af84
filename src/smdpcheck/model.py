"""The SMDP data model, schedulers, validation, and text (de)serialization.

Model format (UTF-8, line oriented, `#` comments):

    labels: a b
    states: s0 s1
    initial: s0
    residence:
      s0 exp(2)
      s1 dirac(1)
    transitions:
      s0 a s1 1
      s1 a s1 1/2

Scheduler format: one `state label weight` triple per line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .distributions import Dirac, Distribution, Exponential, Uniform, render
from .errors import ModelFormatError, UnknownLabel, UnknownState

MASS_TOL = 1e-12

__all__ = [
    "Smdp",
    "Scheduler",
    "Violation",
    "validate_model",
    "validate_scheduler",
    "effective_transition",
    "has_deterministic_kernel",
    "parse_model",
    "serialize_model",
    "parse_scheduler",
    "serialize_scheduler",
    "uniform_scheduler",
    "dirac_scheduler",
]


class Smdp:
    """A finite semi-Markov decision process.

    States and labels keep their declaration order; transition rows are
    subdistributions (their mass may be below one, the rest is deadlock).
    Instances are immutable once constructed.
    """

    def __init__(self, labels, states, initial, residence, transitions):
        self.labels: Tuple[str, ...] = tuple(labels)
        self.states: Tuple[str, ...] = tuple(states)
        self.initial: str = initial
        self.residence: Dict[str, Distribution] = dict(residence)
        self.transitions: Dict[Tuple[str, str], Dict[str, float]] = {
            key: dict(row) for key, row in transitions.items() if row
        }
        self._state_index = {s: i for i, s in enumerate(self.states)}
        self._label_index = {a: i for i, a in enumerate(self.labels)}

    def __eq__(self, other):
        if not isinstance(other, Smdp):
            return NotImplemented
        return (self.labels == other.labels and self.states == other.states
                and self.initial == other.initial and self.residence == other.residence
                and self.transitions == other.transitions)

    def __repr__(self):
        return f"Smdp(states={len(self.states)}, labels={self.labels}, initial={self.initial!r})"

    def state_index(self, name: str) -> int:
        try:
            return self._state_index[name]
        except KeyError:
            raise UnknownState(f"unknown state {name!r}") from None

    def label_index(self, name: str) -> int:
        try:
            return self._label_index[name]
        except KeyError:
            raise UnknownLabel(f"unknown label {name!r}") from None

    def succ(self, state: str, label: str) -> Dict[str, float]:
        """Transition row tau(state, label); empty when undefined."""
        self.state_index(state)
        self.label_index(label)
        return self.transitions.get((state, label), {})

    def residence_of(self, state: str) -> Distribution:
        self.state_index(state)
        return self.residence[state]

    def adjacent(self, state: str):
        """Successors reachable from state via a positive row of any label."""
        out = set()
        for a in self.labels:
            for s2, p in self.transitions.get((state, a), {}).items():
                if p > 0.0:
                    out.add(s2)
        return sorted(out, key=self.state_index)


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: str
    detail: str

    def __str__(self):
        return f"{self.kind}({self.subject}): {self.detail}"


def validate_model(m: Smdp) -> List[Violation]:
    """Structural diagnostics; an empty list means the model is well formed."""
    out = []
    states = set(m.states)
    labels = set(m.labels)
    if not m.states:
        out.append(Violation("NoStates", "-", "model has no states"))
    if not m.labels:
        out.append(Violation("NoLabels", "-", "model has no labels"))
    if len(states) != len(m.states):
        out.append(Violation("DuplicateName", "states", "state declared twice"))
    if len(labels) != len(m.labels):
        out.append(Violation("DuplicateName", "labels", "label declared twice"))
    if m.initial not in states:
        out.append(Violation("BadInitial", m.initial, "initial state is not declared"))
    for s in m.states:
        if s not in m.residence:
            out.append(Violation("MissingResidence", s, "state has no residence distribution"))
    for s in m.residence:
        if s not in states:
            out.append(Violation("DanglingState", s, "residence entry for undeclared state"))
    for (s, a), row in sorted(m.transitions.items()):
        if s not in states:
            out.append(Violation("DanglingState", s, f"transition source in ({s},{a})"))
        if a not in labels:
            out.append(Violation("DanglingLabel", a, f"transition label in ({s},{a})"))
        mass = 0.0
        for s2, p in sorted(row.items()):
            if s2 not in states:
                out.append(Violation("DanglingState", s2, f"transition target in ({s},{a})"))
            if not (0.0 <= p <= 1.0 + MASS_TOL):
                out.append(Violation("BadProbability", f"{s},{a},{s2}", f"probability {p!r} outside [0,1]"))
            mass += p
        if mass > 1.0 + MASS_TOL:
            out.append(Violation("MassExceeded", f"{s},{a}", f"row mass {mass!r} exceeds 1"))
    return out


class Scheduler:
    """Memoryless stochastic scheduler: state -> distribution over labels."""

    def __init__(self, choice):
        self.choice: Dict[str, Dict[str, float]] = {
            s: dict(row) for s, row in choice.items()
        }

    def __eq__(self, other):
        if not isinstance(other, Scheduler):
            return NotImplemented
        return self.choice == other.choice

    def __repr__(self):
        parts = []
        for s, row in self.choice.items():
            inner = "+".join(f"{w!r}*{a}" for a, w in sorted(row.items()) if w > 0.0)
            parts.append(f"{s}:{inner}")
        return "Scheduler(" + ", ".join(parts) + ")"

    def weight(self, state: str, label: str) -> float:
        return self.choice.get(state, {}).get(label, 0.0)

    def matrix(self, m: Smdp):
        """Dense (n_states, n_labels) weight array aligned with model order."""
        arr = np.zeros((len(m.states), len(m.labels)))
        for s, row in self.choice.items():
            si = m.state_index(s)
            for a, wgt in row.items():
                arr[si, m.label_index(a)] = wgt
        return arr

    @staticmethod
    def from_matrix(m: Smdp, arr) -> "Scheduler":
        choice = {}
        for si, s in enumerate(m.states):
            choice[s] = {a: float(arr[si, ai]) for ai, a in enumerate(m.labels) if arr[si, ai] > 0.0}
        return Scheduler(choice)


def validate_scheduler(m: Smdp, sch: Scheduler) -> List[Violation]:
    out = []
    states = set(m.states)
    labels = set(m.labels)
    for s, row in sorted(sch.choice.items()):
        if s not in states:
            out.append(Violation("DanglingState", s, "scheduler entry for undeclared state"))
            continue
        mass = 0.0
        for a, w in sorted(row.items()):
            if a not in labels:
                out.append(Violation("DanglingLabel", a, f"scheduler label at state {s}"))
            if not w >= 0.0:  # NaN fails this test too
                out.append(Violation("BadProbability", f"{s},{a}", f"weight {w!r} is not >= 0"))
            mass += w
        if not abs(mass - 1.0) <= MASS_TOL:
            out.append(Violation("MassNotOne", s, f"weights sum to {mass!r}"))
    for s in m.states:
        if s not in sch.choice:
            out.append(Violation("MissingState", s, "scheduler does not cover this state"))
    return out


def uniform_scheduler(m: Smdp) -> Scheduler:
    w = 1.0 / len(m.labels)
    return Scheduler({s: {a: w for a in m.labels} for s in m.states})


def dirac_scheduler(m: Smdp, label: str) -> Scheduler:
    m.label_index(label)
    return Scheduler({s: {label: 1.0} for s in m.states})


def effective_transition(m: Smdp, sch: Scheduler, s: str, a: str, s2: str) -> float:
    """tau(s,a)(s2) * sigma(s)(a): the transition probability under sch."""
    m.state_index(s2)
    return m.succ(s, a).get(s2, 0.0) * sch.weight(s, a)


def has_deterministic_kernel(m: Smdp) -> bool:
    """True iff every (state, label) row has at most one positive entry."""
    for row in m.transitions.values():
        if sum(1 for p in row.values() if p > 0.0) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# text format

_LITERAL_RE = re.compile(r"^(dirac|exp|uniform)\(([^)]*)\)$")
_SECTIONS = ("labels", "states", "initial", "residence", "transitions")


def _parse_number(tok: str, lineno: int) -> float:
    """Decimal or rational p/q."""
    if "/" in tok:
        num, _, den = tok.partition("/")
        try:
            return float(num) / float(den)
        except (ValueError, ZeroDivisionError):
            raise ModelFormatError(f"bad rational {tok!r}", lineno) from None
    try:
        return float(tok)
    except ValueError:
        raise ModelFormatError(f"bad number {tok!r}", lineno) from None


def parse_distribution_literal(tok: str, lineno: int = 0) -> Distribution:
    mo = _LITERAL_RE.match(tok)
    if mo is None:
        raise ModelFormatError(f"bad distribution literal {tok!r}", lineno)
    name, args = mo.group(1), [a.strip() for a in mo.group(2).split(",") if a.strip()]
    try:
        if name == "dirac" and len(args) == 1:
            return Dirac(_parse_number(args[0], lineno))
        if name == "exp" and len(args) == 1:
            return Exponential(_parse_number(args[0], lineno))
        if name == "uniform" and len(args) == 2:
            return Uniform(_parse_number(args[0], lineno), _parse_number(args[1], lineno))
    except ValueError as exc:
        raise ModelFormatError(str(exc), lineno) from None
    raise ModelFormatError(f"bad arguments in distribution literal {tok!r}", lineno)


def serialize_distribution(d: Distribution) -> str:
    # repr keeps the exact float; render() is only for display
    if isinstance(d, Dirac):
        return f"dirac({d.point!r})"
    if isinstance(d, Exponential):
        return f"exp({d.rate!r})"
    if isinstance(d, Uniform):
        return f"uniform({d.lo!r},{d.hi!r})"
    raise ModelFormatError(
        f"distribution {render(d)} has no literal in the model format "
        "(only dirac/exp/uniform are serializable)")


def _iter_content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield lineno, line.strip()


def parse_model(text: str) -> Smdp:
    """Parses the model format; semantic problems are left to validate_model."""
    labels: List[str] = []
    states: List[str] = []
    initial: Optional[str] = None
    residence: Dict[str, Distribution] = {}
    literals: Dict[str, Distribution] = {}
    transitions: Dict[Tuple[str, str], Dict[str, float]] = {}
    section = None
    seen = set()
    for lineno, line in _iter_content_lines(text):
        head, colon, rest = line.partition(":")
        if colon and head in _SECTIONS:
            if head in seen:
                raise ModelFormatError(f"duplicate section {head!r}", lineno)
            seen.add(head)
            section = head
            rest = rest.strip()
            if head == "labels":
                labels = rest.split()
            elif head == "states":
                states = rest.split()
            elif head == "initial":
                if len(rest.split()) != 1:
                    raise ModelFormatError("initial takes exactly one state", lineno)
                initial = rest
            elif rest:
                raise ModelFormatError(f"section {head!r} takes indented lines, not inline values", lineno)
            continue
        if colon and head.strip() and " " not in head.strip():
            raise ModelFormatError(f"unknown section {head.strip()!r}", lineno)
        if section == "residence":
            toks = line.split()
            if len(toks) != 2:
                raise ModelFormatError("residence line must be: <state> <distribution>", lineno)
            if toks[0] in residence:
                raise ModelFormatError(f"duplicate residence for {toks[0]!r}", lineno)
            # one object per literal: class_law shares the laws of states that share one
            residence[toks[0]] = literals.setdefault(toks[1], parse_distribution_literal(toks[1], lineno))
        elif section == "transitions":
            toks = line.split()
            if len(toks) != 4:
                raise ModelFormatError("transition line must be: <from> <label> <to> <prob>", lineno)
            frm, lab, to, ptok = toks
            row = transitions.setdefault((frm, lab), {})
            if to in row:
                raise ModelFormatError(f"duplicate transition {frm} {lab} {to}", lineno)
            row[to] = _parse_number(ptok, lineno)
        else:
            raise ModelFormatError(f"unexpected line outside a section: {line!r}", lineno)
    if initial is None:
        raise ModelFormatError("missing initial: section", 0)
    if not states:
        raise ModelFormatError("missing states: section", 0)
    if not labels:
        raise ModelFormatError("missing labels: section", 0)
    return Smdp(labels, states, initial, residence, transitions)


def serialize_model(m: Smdp) -> str:
    lines = [
        "labels: " + " ".join(m.labels),
        "states: " + " ".join(m.states),
        "initial: " + m.initial,
        "residence:",
    ]
    for s in m.states:
        if s in m.residence:
            lines.append(f"  {s} {serialize_distribution(m.residence[s])}")
    lines.append("transitions:")
    for s in m.states:
        for a in m.labels:
            row = m.transitions.get((s, a))
            if not row:
                continue
            for s2 in sorted(row, key=lambda x: m.states.index(x) if x in m.states else len(m.states)):
                lines.append(f"  {s} {a} {s2} {row[s2]!r}")
    return "\n".join(lines) + "\n"


def parse_scheduler(text: str) -> Scheduler:
    choice: Dict[str, Dict[str, float]] = {}
    for lineno, line in _iter_content_lines(text):
        toks = line.split()
        if len(toks) != 3:
            raise ModelFormatError("scheduler line must be: <state> <label> <weight>", lineno)
        s, a, wtok = toks
        row = choice.setdefault(s, {})
        if a in row:
            raise ModelFormatError(f"duplicate scheduler entry {s} {a}", lineno)
        row[a] = _parse_number(wtok, lineno)
    return Scheduler(choice)


def serialize_scheduler(sch: Scheduler) -> str:
    lines = []
    for s in sch.choice:
        for a, w in sch.choice[s].items():
            lines.append(f"{s} {a} {w!r}")
    return "\n".join(lines) + "\n"
