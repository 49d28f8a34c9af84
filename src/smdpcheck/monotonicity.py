"""Monotonicity and strong monotonicity of a residence-time composition.

These are the per-path conditions under which replacing a component with a
faster one cannot slow the composite down.  The strong variant quantifies
both schedulers universally and is decided up to the pigeonhole path bound;
the plain variant keeps an existential scheduler and is only ever checked up
to a caller-given depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

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
    positive transition row of some label.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def rec(path):
        if len(path) == n:
            yield tuple(path)
            return
        for s2 in m.adjacent(path[-1]):
            path.append(s2)
            yield from rec(path)
            path.pop()

    yield from rec([m.initial])


def _layers(m: Smdp, n: int):
    """Reachable state sets per path index 1..n, with one parent per entry."""
    layers: List[List[str]] = [[]] * (n + 1)
    parent: Dict[Tuple[int, str], Optional[str]] = {(1, m.initial): None}
    layers[1] = [m.initial]
    for i in range(2, n + 1):
        nxt = []
        for s in layers[i - 1]:
            for s2 in m.adjacent(s):
                if (i, s2) not in parent:
                    parent[(i, s2)] = s
                    nxt.append(s2)
        layers[i] = sorted(nxt, key=m.states.index)
    return layers, parent


def _prefix(parent, i: int, s: str) -> tuple:
    out = [s]
    k = i
    while k > 1:
        s = parent[(k, s)]
        out.append(s)
        k -= 1
    return tuple(reversed(out))


def _pair_prefix(parent_a, parent_b, i, sa, sb) -> tuple:
    pa = _prefix(parent_a, i, sa)
    pb = _prefix(parent_b, i, sb)
    return tuple(composite_name(x, y) for x, y in zip(pa, pb))


class _Ctx:
    """Shared scaffolding of both checkers."""

    def __init__(self, u, v, w, w2, op, n, collect_all):
        require_same_labels(u, v)
        require_same_labels(u, w)
        require_same_labels(u, w2)
        self.u, self.v, self.w, self.w2 = u, v, w, w2
        self.op = op
        self.n = n
        self.collect_all = collect_all
        self.labels = u.labels
        self.lu, self.pu = _layers(u, n)
        self.lv, self.pv = _layers(v, n)
        self.lw, self.pw = _layers(w, n)
        self.lw2, self.pw2 = _layers(w2, n)
        self.violations: List[MonotonicityViolation] = []

    def add(self, violation) -> bool:
        """Records a violation; returns True when checking should stop."""
        self.violations.append(violation)
        return not self.collect_all

    def det_kernel_check(self) -> bool:
        if has_deterministic_kernel(self.w2):
            return False
        return self.add(MonotonicityViolation(
            "DetKernel", None, None, (self.w2.initial,), (),
            None, "context replacement lacks a deterministic Markov kernel"))

    def cdf_conditions(self) -> bool:
        """Composite CDFs must straddle the component CDFs along all paths."""
        seen_fast = set()
        seen_slow = set()
        for i in range(1, self.n + 1):
            for uu in self.lu[i]:
                for ww in self.lw[i]:
                    if (uu, ww) in seen_fast:
                        continue
                    seen_fast.add((uu, ww))
                    comp = compose_residence(self.op, self.u.residence_of(uu), self.w.residence_of(ww))
                    verdict = dominates(comp, self.u.residence_of(uu))
                    if not verdict.holds:
                        stop = self.add(MonotonicityViolation(
                            "CdfFast", i, None, (uu, ww),
                            _pair_prefix(self.pu, self.pw, i, uu, ww),
                            verdict.witness_t,
                            f"composite residence at {composite_name(uu, ww)} is slower than "
                            f"the component at {uu} (CDF falls below at t={verdict.witness_t!r})"))
                        if stop:
                            return True
            for vv in self.lv[i]:
                for ww2 in self.lw2[i]:
                    if (vv, ww2) in seen_slow:
                        continue
                    seen_slow.add((vv, ww2))
                    comp = compose_residence(self.op, self.v.residence_of(vv), self.w2.residence_of(ww2))
                    verdict = dominates(self.v.residence_of(vv), comp)
                    if not verdict.holds:
                        stop = self.add(MonotonicityViolation(
                            "CdfSlow", i, None, (vv, ww2),
                            _pair_prefix(self.pv, self.pw2, i, vv, ww2),
                            verdict.witness_t,
                            f"composite residence at {composite_name(vv, ww2)} is faster than "
                            f"the component at {vv} (CDF exceeds at t={verdict.witness_t!r})"))
                        if stop:
                            return True
        return False

    def report(self, mode: str) -> MonotonicityReport:
        verdict = "Holds" if not self.violations else "Fails"
        return MonotonicityReport(verdict, mode, self.n, tuple(self.violations))


def _required_fast_ratio(ctx: _Ctx, uu: str, ww: str, b: str):
    """Largest composite weight label b must carry at state uu⋆ww, or None.

    This is max over path-adjacent successor pairs of
    tau_U(uu,b)(u') / (tau_U(uu,b)(u') * tau_W(ww,b)(w')); float('inf') when
    some adjacent context successor has no b-mass at all.
    """
    supp_u = [s2 for s2, p in ctx.u.succ(uu, b).items() if p > 0.0]
    if not supp_u:
        return None
    adj_w = ctx.w.adjacent(ww)
    if not adj_w:
        return None
    worst = 0.0
    for w2 in adj_w:
        pw = ctx.w.succ(ww, b).get(w2, 0.0)
        if pw <= 0.0:
            return float("inf")
        worst = max(worst, 1.0 / pw)
    return worst


def _slow_pressures(ctx: _Ctx, vv: str, ww2: str):
    """Per-label mass an adversary can force onto sigma_V at vv via ww2.

    Under a deterministic context kernel this is the single positive entry of
    the context row, when the component itself has a positive row.
    """
    out = {}
    adj = set(ctx.w2.adjacent(ww2))
    for a in ctx.labels:
        if not any(p > 0.0 for p in ctx.v.succ(vv, a).values()):
            continue
        vals = [p for s2, p in ctx.w2.succ(ww2, a).items() if p > 0.0 and s2 in adj]
        if vals:
            out[a] = max(vals)
    return out


def _best_assignment(pressures: Dict[str, Dict[str, float]]) -> float:
    """Max over injective label -> context-state assignments of the sum.

    pressures maps label -> {context state: forced mass}.  Each context state
    carries one scheduler distribution, so an adversary can dedicate it to a
    single label; the worst case is the best injective assignment.  The
    pressures are nonnegative, so that is a maximum-weight matching.
    """
    labels = [a for a in pressures if pressures[a]]
    ctx_states = sorted({s for a in labels for s in pressures[a]})
    weights = np.array([[pressures[a].get(s, 0.0) for s in ctx_states] for a in labels], ndmin=2)
    rows, cols = linear_sum_assignment(weights, maximize=True)
    return float(weights[rows, cols].sum())


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
    ctx = _Ctx(u, v, w, w2, op, m, collect_all)
    if ctx.det_kernel_check():
        return ctx.report("Strong")
    if ctx.cdf_conditions():
        return ctx.report("Strong")
    multi = len(ctx.labels) > 1
    seen_fast = set()
    seen_slow = set()
    for i in range(1, m):
        ws_with_succ = [ww for ww in ctx.lw[i] if ctx.w.adjacent(ww)]
        for uu in ctx.lu[i]:
            if not ws_with_succ:
                continue
            for b in ctx.labels:
                supp = [s2 for s2, p in u.succ(uu, b).items() if p > 0.0]
                if not supp:
                    continue
                if multi:
                    if (uu, b) in seen_fast:
                        continue
                    seen_fast.add((uu, b))
                    stop = ctx.add(MonotonicityViolation(
                        "SchedFast", i, b, (uu, ws_with_succ[0]),
                        _pair_prefix(ctx.pu, ctx.pw, i, uu, ws_with_succ[0]),
                        None,
                        f"a composite scheduler may give label {b} weight 0 while "
                        f"tau({uu},{b})({supp[0]}) = {u.succ(uu, b)[supp[0]]!r} > 0"))
                    if stop:
                        return ctx.report("Strong")
                else:
                    for ww in ws_with_succ:
                        if (uu, ww, b) in seen_fast:
                            continue
                        seen_fast.add((uu, ww, b))
                        ratio = _required_fast_ratio(ctx, uu, ww, b)
                        if ratio is not None and ratio > 1.0 + _RATIO_TOL:
                            stop = ctx.add(MonotonicityViolation(
                                "SchedFast", i, b, (uu, ww),
                                _pair_prefix(ctx.pu, ctx.pw, i, uu, ww),
                                None,
                                f"context transition mass below 1 at {ww}: composite "
                                f"weight would need {ratio!r}"))
                            if stop:
                                return ctx.report("Strong")
        if multi:
            for vv in ctx.lv[i]:
                for ww2 in ctx.lw2[i]:
                    if (vv, ww2) in seen_slow:
                        continue
                    seen_slow.add((vv, ww2))
                    pressures = _slow_pressures(ctx, vv, ww2)
                    hot = [a for a, q in pressures.items() if q > 0.0]
                    if hot:
                        a = hot[0]
                        stop = ctx.add(MonotonicityViolation(
                            "SchedSlow", i, a, (vv, ww2),
                            _pair_prefix(ctx.pv, ctx.pw2, i, vv, ww2),
                            None,
                            f"a component scheduler may give label {a} weight 0 while the "
                            f"composite at {composite_name(vv, ww2)} moves with mass {pressures[a]!r}"))
                        if stop:
                            return ctx.report("Strong")
    return ctx.report("Strong")


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
    ctx = _Ctx(u, v, w, w2, op, n, collect_all)
    if ctx.det_kernel_check():
        return ctx.report("Bounded")
    if ctx.cdf_conditions():
        return ctx.report("Bounded")
    seen = set()
    for i in range(1, n):
        for uu in ctx.lu[i]:
            for ww in ctx.lw[i]:
                for b in ctx.labels:
                    if (uu, ww, b) in seen:
                        continue
                    seen.add((uu, ww, b))
                    ratio = _required_fast_ratio(ctx, uu, ww, b)
                    if ratio is not None and ratio > 1.0 + _RATIO_TOL:
                        stop = ctx.add(MonotonicityViolation(
                            "SchedFast", i, b, (uu, ww),
                            _pair_prefix(ctx.pu, ctx.pw, i, uu, ww),
                            None,
                            f"vertex adversary at {b} needs composite weight {ratio!r} > 1 "
                            f"at {composite_name(uu, ww)}"))
                        if stop:
                            return ctx.report("Bounded")
    # slow side: constraints on one component scheduler accumulate over all
    # co-occurring context states, so the adversary assigns contexts to labels
    co_occur: Dict[str, Dict[str, int]] = {}
    for i in range(1, n):
        for vv in ctx.lv[i]:
            for ww2 in ctx.lw2[i]:
                co_occur.setdefault(vv, {}).setdefault(ww2, i)
    for vv in sorted(co_occur, key=v.states.index):
        pressures: Dict[str, Dict[str, float]] = {a: {} for a in ctx.labels}
        for ww2 in co_occur[vv]:
            for a, q in _slow_pressures(ctx, vv, ww2).items():
                if q > 0.0:
                    pressures[a][ww2] = q
        need = _best_assignment(pressures)
        if need > 1.0 + _RATIO_TOL:
            first_ww2 = min(co_occur[vv], key=lambda s: co_occur[vv][s])
            i = co_occur[vv][first_ww2]
            stop = ctx.add(MonotonicityViolation(
                "SchedSlow", i, None, (vv,) + tuple(sorted(co_occur[vv])),
                _pair_prefix(ctx.pv, ctx.pw2, i, vv, first_ww2),
                None,
                f"an adversary composite scheduler forces component weights summing "
                f"to {need!r} > 1 at {vv}"))
            if stop:
                return ctx.report("Bounded")
    return ctx.report("Bounded")
