"""Monotonicity and strong monotonicity of a residence-time composition.

These are the per-path conditions under which replacing a component with a
faster one cannot slow the composite down.  The strong variant quantifies
both schedulers universally and is decided up to the pigeonhole path bound;
the plain variant keeps an existential scheduler and is only ever checked up
to a caller-given depth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .composition import composite_name, require_same_labels
from .distributions import compose_residence, dominates
from .model import Smdp, has_deterministic_kernel

__all__ = [
    "MonotonicityViolation",
    "MonotonicityReport",
    "path_bound",
    "enumerate_state_paths",
    "check_strong_monotonicity",
    "check_monotonicity_bounded",
]

_RATIO_TOL = 1e-9


@dataclass(frozen=True)
class MonotonicityViolation:
    condition: str  # CdfFast | CdfSlow | SchedFast | SchedSlow | DetKernel
    index: Optional[int]
    label: Optional[str]
    states: tuple
    path_prefix: tuple
    witness_t: Optional[float]
    detail: str

    def __str__(self):
        where = f" at step {self.index}" if self.index is not None else ""
        return f"{self.condition}{where} [{' '.join(self.states)}]: {self.detail}"


@dataclass(frozen=True)
class MonotonicityReport:
    verdict: str  # "Holds" | "Fails"
    mode: str     # "Strong" | "Bounded"
    bound: int
    violations: tuple

    @property
    def holds(self) -> bool:
        return self.verdict == "Holds"


def path_bound(u: Smdp, v: Smdp, w: Smdp, w2: Smdp) -> int:
    """Pigeonhole length beyond which state paths of the four processes repeat."""
    return (max(len(u.states) * len(w.states), len(v.states) * len(w2.states))
            + max(len(u.states), len(v.states), len(w.states), len(w2.states)) + 1)


def enumerate_state_paths(m: Smdp, n: int):
    """All state paths of length n from the initial state, lexicographically.

    A path is a state sequence whose consecutive entries are connected by a
    positive transition row of some label.  A stack of (index, state) entries
    walks the path tree depth first, each state's successors pushed in reverse.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    path, stack = [], [(0, m.initial)]
    while stack:
        i, st = stack.pop()
        del path[i:]
        path.append(st)
        if len(path) == n:
            yield tuple(path)
        else:
            stack.extend((i + 1, s2) for s2 in reversed(m.adjacent(st)))


def _layers(m: Smdp, n: int) -> List[Dict[str, tuple]]:
    """Per path index 1..n (list positions 0..n-1), each reachable state in model
    order, mapped to the prefix through its earliest parent in the layer before."""
    layers = [{m.initial: (m.initial,)}]
    for _ in range(1, n):
        reached: Dict[str, tuple] = {}
        for s, prefix in layers[-1].items():
            for s2 in m.adjacent(s):
                reached.setdefault(s2, prefix + (s2,))
        layers.append({s: reached[s] for s in m.states if s in reached})
    return layers


class _Pairs:
    """Pairs of same-index states of two processes, each listed once, at its first index.

    at[i] lists the pairs first met at path index i (1..n) in layer order;
    prefix(i, x, y) is a composite state path reaching (x, y) at index i.
    """

    def __init__(self, a: Smdp, b: Smdp, n: int):
        self.la, self.lb = _layers(a, n), _layers(b, n)
        listed = set()
        self.at: List[List[Tuple[str, str]]] = [[]]
        for xs, ys in zip(self.la, self.lb):
            self.at.append([(x, y) for x in xs for y in ys if (x, y) not in listed])
            listed.update(self.at[-1])

    def prefix(self, i: int, x: str, y: str) -> tuple:
        return tuple(composite_name(p, q) for p, q in zip(self.la[i - 1][x], self.lb[i - 1][y]))


def _walks(u, v, w, w2, n):
    """The fast-side pair walk of (u, w) and the slow-side one of (v, w2)."""
    for x in (v, w, w2):
        require_same_labels(u, x)
    return _Pairs(u, w, n), _Pairs(v, w2, n)


def _shared_violations(u, v, w, w2, op, fast: _Pairs, slow: _Pairs, n: int):
    """What both modes check first: the context kernel, then that composite
    CDFs straddle the component CDFs along all paths."""
    if not has_deterministic_kernel(w2):
        yield MonotonicityViolation(
            "DetKernel", None, None, (w2.initial,), (),
            None, "context replacement lacks a deterministic Markov kernel")
    for i in range(1, n + 1):
        for uu, ww in fast.at[i]:
            comp = compose_residence(op, u.residence_of(uu), w.residence_of(ww))
            verdict = dominates(comp, u.residence_of(uu))
            if not verdict.holds:
                yield MonotonicityViolation(
                    "CdfFast", i, None, (uu, ww), fast.prefix(i, uu, ww), verdict.witness_t,
                    f"composite residence at {composite_name(uu, ww)} is slower than "
                    f"the component at {uu} (CDF falls below at t={verdict.witness_t!r})")
        for vv, ww2 in slow.at[i]:
            comp = compose_residence(op, v.residence_of(vv), w2.residence_of(ww2))
            verdict = dominates(v.residence_of(vv), comp)
            if not verdict.holds:
                yield MonotonicityViolation(
                    "CdfSlow", i, None, (vv, ww2), slow.prefix(i, vv, ww2), verdict.witness_t,
                    f"composite residence at {composite_name(vv, ww2)} is faster than "
                    f"the component at {vv} (CDF exceeds at t={verdict.witness_t!r})")


def _report(mode: str, bound: int, violations, collect_all: bool) -> MonotonicityReport:
    """The first violation, or all of them; none are computed past what is kept."""
    found = tuple(violations if collect_all else itertools.islice(violations, 1))
    return MonotonicityReport("Fails" if found else "Holds", mode, bound, found)


def _required_fast_ratio(u: Smdp, w: Smdp, uu: str, ww: str, b: str):
    """Largest composite weight label b must carry at state uu⋆ww, or None.

    This is max over path-adjacent successor pairs of
    tau_U(uu,b)(u') / (tau_U(uu,b)(u') * tau_W(ww,b)(w')); float('inf') when
    some adjacent context successor has no b-mass at all.
    """
    supp_u = [s2 for s2, p in u.succ(uu, b).items() if p > 0.0]
    if not supp_u:
        return None
    adj_w = w.adjacent(ww)
    if not adj_w:
        return None
    worst = 0.0
    for w2 in adj_w:
        pw = w.succ(ww, b).get(w2, 0.0)
        if pw <= 0.0:
            return float("inf")
        worst = max(worst, 1.0 / pw)
    return worst


def _slow_pressures(u: Smdp, v: Smdp, w2: Smdp, vv: str, ww2: str):
    """Per-label mass an adversary can force onto sigma_V at vv via ww2.

    Under a deterministic context kernel this is the single positive entry of
    the context row, when the component itself has a positive row.  Labels
    come in u's order, which v's may not share.
    """
    out = {}
    adj = set(w2.adjacent(ww2))
    for a in u.labels:
        if not any(p > 0.0 for p in v.succ(vv, a).values()):
            continue
        vals = [p for s2, p in w2.succ(ww2, a).items() if p > 0.0 and s2 in adj]
        if vals:
            out[a] = max(vals)
    return out


def _best_assignment(pressures: Dict[str, Dict[str, float]]) -> float:
    """Max over injective label -> context-state assignments of the sum.

    pressures maps label -> {context state: forced mass}.  Each context state
    carries one scheduler distribution, so an adversary can dedicate it to a
    single label; the worst case is the best injective assignment.  The
    pressures are nonnegative, so that is a maximum-weight matching.  The
    chosen entries are summed in label order.
    """
    labels = [a for a in pressures if pressures[a]]
    ctx_states = sorted({s for a in labels for s in pressures[a]})
    weights = [[pressures[a].get(s, 0.0) for s in ctx_states] for a in labels]
    flip = len(labels) > len(ctx_states)  # the smaller side goes on the rows
    pairs = _max_weight_assignment(list(zip(*weights)) if flip else weights)
    return sum((weights[a][s] for a, s in sorted(p[::-1] if flip else p for p in pairs)), 0.0)


def _max_weight_assignment(weights) -> List[Tuple[int, int]]:
    """(row, column) pairs of a maximum-weight assignment of every row, with no
    more rows than columns: Kuhn's Hungarian method on the costs -weight, one
    shortest augmenting path per row over reduced costs (Jonker and Volgenant)."""
    n, m = len(weights), len(weights[0]) if weights else 0
    u, v = [0.0] * (n + 1), [0.0] * (m + 1)  # row and column potentials
    owner = [0] * (m + 1)  # 1-based row matched to each column; column 0 roots the path
    for i in range(1, n + 1):
        owner[0], j0 = i, 0
        dist, back, done = [math.inf] * (m + 1), [0] * (m + 1), [False] * (m + 1)
        while owner[j0]:
            done[j0] = True
            i0, delta, j1 = owner[j0], math.inf, 0
            for j in range(1, m + 1):
                if not done[j]:
                    reduced = -weights[i0 - 1][j - 1] - u[i0] - v[j]
                    if reduced < dist[j]:
                        dist[j], back[j] = reduced, j0
                    if dist[j] < delta:
                        delta, j1 = dist[j], j
            for j in range(m + 1):
                if done[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    dist[j] -= delta
            j0 = j1
        while j0:  # flip the matching along the path back to the root
            owner[j0] = owner[back[j0]]
            j0 = back[j0]
    return [(owner[j] - 1, j - 1) for j in range(1, m + 1) if owner[j]]


def _ratio_violations(u: Smdp, w: Smdp, fast: _Pairs, n: int, detail: str):
    """SchedFast wherever a label needs composite weight above 1, at path indices
    1..n-1; `detail` is formatted with uu, ww, their pair, the label b and the ratio."""
    for i in range(1, n):
        for uu, ww in fast.at[i]:
            for b in u.labels:
                ratio = _required_fast_ratio(u, w, uu, ww, b)
                if ratio is not None and ratio > 1.0 + _RATIO_TOL:
                    yield MonotonicityViolation(
                        "SchedFast", i, b, (uu, ww), fast.prefix(i, uu, ww), None,
                        detail.format(uu=uu, ww=ww, pair=composite_name(uu, ww), b=b, ratio=ratio))


def check_strong_monotonicity(u: Smdp, v: Smdp, w: Smdp, w2: Smdp, op: str,
                              collect_all: bool = False) -> MonotonicityReport:
    """Decides strong monotonicity of `op` in (u, w) vs (v, w2).

    Checked up to the pigeonhole bound, which suffices for the unbounded
    property.  The universal scheduler quantifiers are eliminated by extremal
    values: with more than one label the infimum of a composite scheduler
    weight is 0, so any positive component transition already violates the
    condition; with a single label both schedulers are fixed and the
    transition inequality is checked directly.
    """
    m = path_bound(u, v, w, w2)
    return _report("Strong", m, _strong_violations(u, v, w, w2, op, m), collect_all)


def _strong_violations(u, v, w, w2, op, m):
    fast, slow = _walks(u, v, w, w2, m)
    yield from _shared_violations(u, v, w, w2, op, fast, slow, m)
    if len(u.labels) < 2:
        yield from _ratio_violations(u, w, fast, m, "context transition mass below 1 at {ww}: "
                                                    "composite weight would need {ratio!r}")
        return
    # with several labels a violation belongs to the component state alone,
    # reported at its first pair with a context state that can move
    blamed = set()
    for i in range(1, m):
        for uu, ww in fast.at[i]:
            if uu not in blamed and w.adjacent(ww):
                blamed.add(uu)
                for b in u.labels:
                    supp = [s2 for s2, p in u.succ(uu, b).items() if p > 0.0]
                    if supp:
                        yield MonotonicityViolation(
                            "SchedFast", i, b, (uu, ww), fast.prefix(i, uu, ww), None,
                            f"a composite scheduler may give label {b} weight 0 while "
                            f"tau({uu},{b})({supp[0]}) = {u.succ(uu, b)[supp[0]]!r} > 0")
        for vv, ww2 in slow.at[i]:
            pressures = _slow_pressures(u, v, w2, vv, ww2)
            hot = [a for a, q in pressures.items() if q > 0.0]
            if hot:
                a = hot[0]
                yield MonotonicityViolation(
                    "SchedSlow", i, a, (vv, ww2), slow.prefix(i, vv, ww2), None,
                    f"a component scheduler may give label {a} weight 0 while the "
                    f"composite at {composite_name(vv, ww2)} moves with mass {pressures[a]!r}")


def check_monotonicity_bounded(u: Smdp, v: Smdp, w: Smdp, w2: Smdp, op: str, n: int,
                               collect_all: bool = False) -> MonotonicityReport:
    """Checks n-monotonicity of `op` in (u, w) vs (v, w2).

    The existential scheduler quantifiers reduce to vertex adversaries: the
    fast-side feasibility constraint is linear in the component scheduler, so
    per composite state it suffices that every label's required composite
    weight stays at most 1; the slow side must survive the best injective
    assignment of context states to labels.  No claim is made beyond depth n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _report("Bounded", n, _bounded_violations(u, v, w, w2, op, n), collect_all)


def _bounded_violations(u, v, w, w2, op, n):
    fast, slow = _walks(u, v, w, w2, n)
    yield from _shared_violations(u, v, w, w2, op, fast, slow, n)
    yield from _ratio_violations(u, w, fast, n, "vertex adversary at {b} needs composite "
                                                "weight {ratio!r} > 1 at {pair}")
    # slow side: constraints on one component scheduler accumulate over all
    # co-occurring context states, so the adversary assigns contexts to labels
    met: Dict[str, List[Tuple[int, str]]] = {}
    for i in range(1, n):
        for vv, ww2 in slow.at[i]:
            met.setdefault(vv, []).append((i, ww2))
    for vv in (s for s in v.states if s in met):
        pressures: Dict[str, Dict[str, float]] = {a: {} for a in u.labels}
        for _, ww2 in met[vv]:
            for a, q in _slow_pressures(u, v, w2, vv, ww2).items():
                if q > 0.0:
                    pressures[a][ww2] = q
        need = _best_assignment(pressures)
        if need > 1.0 + _RATIO_TOL:
            i, first_ww2 = met[vv][0]
            yield MonotonicityViolation(
                "SchedSlow", i, None, (vv,) + tuple(sorted(ww2 for _, ww2 in met[vv])),
                slow.prefix(i, vv, first_ww2), None,
                f"an adversary composite scheduler forces component weights summing "
                f"to {need!r} > 1 at {vv}")
