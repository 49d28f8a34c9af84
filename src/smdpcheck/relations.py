"""Faster-than (bounded), equally-fast, simulation, and bisimulation checking.

The faster-than preorder is undecidable in general, so `faster_than_bounded`
is a bounded semi-decision procedure: a Refuted verdict carries a
re-checkable numeric witness, while NotRefuted only reports that no
counterexample was found within the explored bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .composition import require_same_labels
from .cylinders import word_classes
from .distributions import GridSpec, _dominance_holds, cdf_vec
from .errors import SmdpcheckError
from .model import Scheduler, Smdp

__all__ = [
    "SchedulerSearchSpec",
    "FtWitness",
    "FasterThanVerdict",
    "RelationResult",
    "format_word",
    "faster_than_bounded",
    "equally_fast_bounded",
    "simulates",
    "bisimilar",
]


def format_word(word) -> str:
    """Display form of a label sequence; commas only for multi-char labels."""
    return "".join(word) if all(len(a) == 1 for a in word) else ",".join(word)

_SLACK = 1e-9     # probability slack of the faster-than comparison
_FLOW_SCALE = 10 ** 9  # quantization of masses for exact integer max-flow


@dataclass(frozen=True)
class SchedulerSearchSpec:
    """Search space over memoryless schedulers.

    The lattice puts weights on multiples of `step` per state (all simplex
    vertices are lattice points); coordinate ascent then locally improves the
    best lattice candidate with a halving step size.
    """

    step: float = 0.25
    ascent_iters: int = 100
    min_delta: float = 1e-3
    max_candidates: int = 4096

    def __post_init__(self):
        if not (0.0 < self.step <= 1.0):
            raise ValueError("step must be in (0, 1]")


@dataclass(frozen=True)
class FtWitness:
    """A re-checkable refutation: prob_fast < prob_slow - 1e-9 at (word, t).

    prob_fast is the value under fast_scheduler, the best scheduler the
    search produced for that cylinder (kind "per-cylinder-max") or for the
    whole cylinder family of this adversary (kind "joint-best").
    """

    slow_scheduler: Scheduler
    word: str
    t: float
    prob_fast: float
    prob_slow: float
    fast_scheduler: Scheduler
    kind: str


@dataclass(frozen=True)
class FasterThanVerdict:
    outcome: str  # "NotRefuted" | "Refuted"
    depth: int
    grid: GridSpec
    search: SchedulerSearchSpec
    witness: Optional[FtWitness] = None

    @property
    def refuted(self) -> bool:
        return self.outcome == "Refuted"


@dataclass(frozen=True)
class RelationResult:
    holds: bool
    pairs: tuple  # ((left_state, right_state), ...)


# ---------------------------------------------------------------------------
# scheduler lattices


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _simplex_options(n_labels: int, step: float) -> List[Tuple[float, ...]]:
    """Lattice points of the label simplex, most-mixed first.

    Sorting by descending minimum weight puts balanced distributions before
    vertices, so enumeration visits gentle adversaries first and reported
    witnesses stay minimal in that order.
    """
    k = max(1, round(1.0 / step))
    opts = {tuple(c / k for c in comp) for comp in _compositions(k, n_labels)}
    for i in range(n_labels):  # vertices, in case step does not divide 1
        opts.add(tuple(1.0 if j == i else 0.0 for j in range(n_labels)))
    return sorted(opts, key=lambda w: (-min(w), w))


def _scheduler_products(m: Smdp, options, limit=None):
    """All per-state combinations of the options, in lexicographic order."""
    spaces = [options] * len(m.states)
    product = itertools.product(*spaces)
    if limit is not None:
        product = itertools.islice(product, limit)
    for combo in product:
        yield np.array(combo, dtype=float)  # (n_states, n_labels)


# ---------------------------------------------------------------------------
# word tables

# For a fixed word, the cylinder probability is a polynomial in the scheduler
# weights: each path class of `word_classes` contributes (its transition mass)
# * (product of sigma(s)(a)^count) * F_conv(t).  The tables below freeze the
# exponents and CDF rows so that evaluating a scheduler is a vectorized
# power-product.


class _CdfCache:
    def __init__(self, ts: np.ndarray):
        self.ts = ts
        self._rows: Dict[object, np.ndarray] = {}

    def row(self, dist) -> np.ndarray:
        got = self._rows.get(dist)
        if got is None:
            got = cdf_vec(dist, self.ts)
            self._rows[dist] = got
        return got


class _FastWord:
    def __init__(self, m: Smdp, word: Tuple[str, ...], cache: _CdfCache):
        classes = word_classes(m, m.initial, word)
        n = len(classes)
        self.E = np.array([counts for _, counts in classes], dtype=np.int64).reshape(
            n, len(m.states) * len(m.labels))
        self.coeff = np.array(list(classes.values()))
        self.F = np.array([cache.row(law) for law, _ in classes]).reshape(n, len(cache.ts))

    def eval(self, flat: np.ndarray) -> np.ndarray:
        powers = np.prod(flat[None, :] ** self.E, axis=1)
        return (powers * self.coeff) @ self.F


def _positive_words(m: Smdp, sigma: np.ndarray, depth: int):
    """Words up to `depth` with positive trace probability, in shortlex order."""
    live = {(): {m.initial}}
    for _ in range(depth):
        nxt: Dict[tuple, set] = {}
        for prefix, states in live.items():
            for a in m.labels:
                ai = m.label_index(a)
                targets = set()
                for s in states:
                    if sigma[m.state_index(s), ai] > 0.0:
                        targets.update(s2 for s2, p in m.succ(s, a).items() if p > 0.0)
                if targets:
                    word = prefix + (a,)
                    nxt[word] = targets
                    yield word
        live = nxt
        if not live:
            return


# ---------------------------------------------------------------------------
# coordinate ascent on scheduler matrices


def _ascend(objective, x0: np.ndarray, search: SchedulerSearchSpec) -> Tuple[np.ndarray, float]:
    """Maximizes objective over the product of per-state label simplexes."""
    x = x0.copy()
    best = objective(x)
    delta = search.step
    n_s, n_l = x.shape
    for _ in range(search.ascent_iters):
        improved = False
        for s in range(n_s):
            for i in range(n_l):
                for j in range(n_l):
                    if i == j or x[s, j] < delta - 1e-15:
                        continue
                    y = x.copy()
                    y[s, j] -= delta
                    y[s, i] += delta
                    val = objective(y)
                    if val > best + 1e-15:
                        x, best = y, val
                        improved = True
        if not improved:
            delta *= 0.5
            if delta < search.min_delta:
                break
    return x, best


# ---------------------------------------------------------------------------
# faster-than


def faster_than_bounded(u: Smdp, v: Smdp, depth: int,
                        grid: Optional[GridSpec] = None,
                        search: Optional[SchedulerSearchSpec] = None) -> FasterThanVerdict:
    """Bounded check that u is faster than v.

    For every adversary scheduler of v from the search lattice, the checker
    looks for one scheduler of u that matches every positive-trace word up to
    `depth` at every grid time (one scheduler per adversary, as in the
    cylinder-wise characterisation of the preorder).  The first adversary
    with no match yields a Refuted verdict with a numeric witness; surviving
    all adversaries yields NotRefuted, which is evidence only up to these
    bounds.
    """
    require_same_labels(u, v)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    grid = grid or GridSpec(t_max=10.0, points=5, geometric=False)
    search = search or SchedulerSearchSpec()
    ts = grid.times()
    cache = _CdfCache(ts)

    u_options = _simplex_options(len(u.labels), search.step)
    v_options = _simplex_options(len(v.labels), search.step)
    n_adversaries = len(v_options) ** len(v.states)
    if n_adversaries > 1_000_000:
        raise SmdpcheckError(
            f"adversary lattice has {n_adversaries} schedulers "
            f"({len(v_options)} options over {len(v.states)} states); "
            "increase the search step or reduce the model")
    candidates = list(_scheduler_products(u, u_options, limit=search.max_candidates))
    word_tables: Dict[tuple, Tuple[_FastWord, _FastWord]] = {}  # word -> (fast u, slow v)

    for sigma in _scheduler_products(v, v_options):
        words = list(_positive_words(v, sigma, depth))
        if not words:
            continue
        for w in words:
            if w not in word_tables:
                word_tables[w] = (_FastWord(u, w, cache), _FastWord(v, w, cache))
        tables = [word_tables[w][0] for w in words]
        slow = np.array([word_tables[w][1].eval(sigma.ravel()) for w in words])

        cand_vals = np.array([[tb.eval(x.ravel()) for tb in tables] for x in candidates])
        cand_max = cand_vals.max(axis=0)  # (n_words, n_ts)

        witness = None
        fail_mask = cand_max < slow - _SLACK
        if fail_mask.any():
            wi, ti = _first_true(fail_mask)
            tb = tables[wi]
            x0 = candidates[int(cand_vals[:, wi, ti].argmax())]
            x_best, val = _ascend(lambda x, _tb=tb, _ti=ti: float(_tb.eval(x.ravel())[_ti]),
                                  x0, search)
            if val < slow[wi, ti] - _SLACK:
                witness = FtWitness(
                    slow_scheduler=Scheduler.from_matrix(v, sigma),
                    word=format_word(words[wi]),
                    t=float(ts[ti]),
                    prob_fast=float(val),
                    prob_slow=float(slow[wi, ti]),
                    fast_scheduler=Scheduler.from_matrix(u, x_best),
                    kind="per-cylinder-max",
                )
        if witness is None:
            def joint(x):
                vals = np.array([tb.eval(x.ravel()) for tb in tables])
                return float((vals - slow).min())

            margins = [joint(x) for x in candidates]
            x0 = candidates[int(np.argmax(margins))]
            x_best, margin = _ascend(joint, x0, search)
            if margin >= -_SLACK:
                continue  # this adversary is matched; try the next one
            vals = np.array([tb.eval(x_best.ravel()) for tb in tables])
            wi, ti = _first_true((vals - slow) <= margin + 1e-12)
            witness = FtWitness(
                slow_scheduler=Scheduler.from_matrix(v, sigma),
                word=format_word(words[wi]),
                t=float(ts[ti]),
                prob_fast=float(vals[wi, ti]),
                prob_slow=float(slow[wi, ti]),
                fast_scheduler=Scheduler.from_matrix(u, x_best),
                kind="joint-best",
            )
        return FasterThanVerdict("Refuted", depth, grid, search, witness)
    return FasterThanVerdict("NotRefuted", depth, grid, search)


def _first_true(mask: np.ndarray) -> Tuple[int, int]:
    flat = int(np.argmax(mask))
    return flat // mask.shape[1], flat % mask.shape[1]


def equally_fast_bounded(u: Smdp, v: Smdp, depth: int,
                         grid: Optional[GridSpec] = None,
                         search: Optional[SchedulerSearchSpec] = None):
    """Both directions of faster_than_bounded: (u vs v, v vs u)."""
    return (faster_than_bounded(u, v, depth, grid, search),
            faster_than_bounded(v, u, depth, grid, search))


# ---------------------------------------------------------------------------
# simulation / bisimulation


def _quantize(p: float) -> int:
    return int(round(p * _FLOW_SCALE))


def _weight_function_exists(row1: Dict[str, float], row2: Dict[str, float], allowed) -> bool:
    """Feasibility of a coupling with marginals row1/row2 supported on allowed.

    Decided by integer max-flow on masses quantized at 1e-9, so float
    feasibility noise cannot flip the answer; the quantized total of a row
    with mass at most one fits the int32 capacities that max-flow takes.
    """
    q1 = {s: _quantize(p) for s, p in row1.items() if _quantize(p) > 0}
    q2 = {s: _quantize(p) for s, p in row2.items() if _quantize(p) > 0}
    total1, total2 = sum(q1.values()), sum(q2.values())
    if total1 != total2:
        return False
    if total1 == 0:
        return True
    if len(q1) == 1 or len(q2) == 1:  # a lone state couples with every state on the other side
        return all((s, s2) in allowed for s in q1 for s2 in q2)
    # nodes: 0 = source, then row1's states, then row2's states, then the sink
    left = {s: 1 + i for i, s in enumerate(q1)}
    right = {s2: 1 + len(q1) + j for j, s2 in enumerate(q2)}
    sink = 1 + len(q1) + len(q2)
    edges = [(0, left[s], q) for s, q in q1.items()]
    edges += [(right[s2], sink, q) for s2, q in q2.items()]
    edges += [(left[s], right[s2], total1) for s in q1 for s2 in q2 if (s, s2) in allowed]
    tails, heads, caps = zip(*edges)
    graph = csr_matrix((np.array(caps, dtype=np.int32), (tails, heads)), shape=(sink + 1, sink + 1))
    return maximum_flow(graph, 0, sink).flow_value == total1


def simulates(u: Smdp, v: Smdp) -> RelationResult:
    """Does v simulate u (u below v in the simulation preorder)?

    Greatest fixpoint: start from the pairs where v's residence CDF dominates
    u's, then repeatedly drop pairs lacking a label-wise weight function into
    the remaining relation.
    """
    require_same_labels(u, v)
    holds: Dict[tuple, bool] = {}  # (v's law, u's law) -> dominance; many states share a law
    rel = set()
    for su in u.states:
        for sv in v.states:
            laws = (v.residence_of(sv), u.residence_of(su))
            if laws not in holds:
                holds[laws] = _dominance_holds(*laws)
            if holds[laws]:
                rel.add((su, sv))
    changed = True
    while changed:
        changed = False
        for (su, sv) in sorted(rel):
            for a in u.labels:
                if not _weight_function_exists(u.succ(su, a), v.succ(sv, a), rel):
                    rel.discard((su, sv))
                    changed = True
                    break
    return RelationResult((u.initial, v.initial) in rel, tuple(sorted(rel)))


def bisimilar(u: Smdp, v: Smdp) -> RelationResult:
    """Partition refinement on the disjoint union of u and v.

    Initial blocks group states with equal residence CDFs (canonical equality
    first, two-way dominance as fallback); blocks split until the per-label
    block-mass signatures stabilize.
    """
    require_same_labels(u, v)
    union = [("L", s) for s in u.states] + [("R", s) for s in v.states]

    def model_of(tag):
        return u if tag == "L" else v

    # initial partition by residence CDF equality
    reps: List[Tuple[object, int]] = []  # (distribution, block id)
    block_of_law: Dict[object, int] = {}  # equal laws share a block without a dominance check
    block_of: Dict[Tuple[str, str], int] = {}
    for tag, s in union:
        d = model_of(tag).residence_of(s)
        assigned = block_of_law.get(d)
        if assigned is None:
            for rep_d, bid in reps:
                if _dominance_holds(rep_d, d) and _dominance_holds(d, rep_d):
                    assigned = bid
                    break
            if assigned is None:
                assigned = len(reps)
                reps.append((d, assigned))
            block_of_law[d] = assigned
        block_of[(tag, s)] = assigned

    while True:
        sigs: Dict[Tuple[str, str], tuple] = {}
        for tag, s in union:
            m = model_of(tag)
            sig = []
            for a in u.labels:
                masses: Dict[int, int] = {}
                for s2, p in m.succ(s, a).items():
                    q = _quantize(p)
                    if q > 0:
                        bid = block_of[(tag, s2)]
                        masses[bid] = masses.get(bid, 0) + q
                sig.append(tuple(sorted(masses.items())))
            sigs[(tag, s)] = (block_of[(tag, s)], tuple(sig))
        new_ids: Dict[tuple, int] = {}
        new_block_of = {}
        for st in union:
            key = sigs[st]
            if key not in new_ids:
                new_ids[key] = len(new_ids)
            new_block_of[st] = new_ids[key]
        if new_block_of == block_of:
            break
        block_of = new_block_of

    pairs = tuple(sorted(
        (su, sv)
        for su in u.states for sv in v.states
        if block_of[("L", su)] == block_of[("R", sv)]))
    holds = block_of[("L", u.initial)] == block_of[("R", v.initial)]
    return RelationResult(holds, pairs)
