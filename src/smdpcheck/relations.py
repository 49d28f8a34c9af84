"""Faster-than (bounded), equally-fast, simulation, and bisimulation checking.

The faster-than preorder is undecidable in general.  `faster_than_bounded`
first looks for a state map under which u lumps onto v and each residence
dominates its image's; such a map proves u faster than v for every depth
and every time, and the verdict is NotRefuted with that proof.  Failing
that, it is a bounded semi-decision procedure: a Refuted verdict carries a
re-checkable numeric witness, while a NotRefuted verdict without a proof
only reports that no counterexample was found within the explored bounds.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .composition import require_same_labels
from .cylinders import _Walk, class_law, initial_level, level_masses
from .distributions import (
    Exponential,
    GridSpec,
    _cdf_equal,
    _dominance_outcome,
    cdf_table,
)
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
_FLOW_SCALE = 10 ** 9  # masses are compared in quanta of 1e-9
_EVAL_BUDGET = 1 << 20  # float64 entries of the power array of one evaluation block
_ASCENT_ITERS = 100   # sweeps of the coordinate ascent
_MIN_DELTA = 1e-3     # the ascent stops once its halved step is below this
_MAX_CANDIDATES = 4096  # fast schedulers taken from the lattice, spread evenly over it;
                        # also the images the state-map search tries before it gives up


@dataclass(frozen=True)
class SchedulerSearchSpec:
    """Search space over memoryless schedulers.

    The lattice puts weights on multiples of `step` per state (all simplex
    vertices are lattice points); coordinate ascent then locally improves the
    best lattice candidate with a halving step size.
    """

    step: float = 0.25

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
    candidates: int = 0          # fast schedulers the lattice search takes (none run under a proof)
    candidate_lattice: int = 0   # fast schedulers in the full lattice
    candidates_truncated: bool = False  # _MAX_CANDIDATES cut the lattice
    # ((state of u, its image in v, "HoldsAnalytic" | "HoldsOnGrid"), ...) of a state
    # map that proves the relation, breadth first from the initial states; else None
    proof: Optional[Tuple[Tuple[str, str, str], ...]] = None

    @property
    def refuted(self) -> bool:
        return self.outcome == "Refuted"


@dataclass(frozen=True)
class RelationResult:
    holds: bool
    pairs: tuple  # ((left_state, right_state), ...)


# ---------------------------------------------------------------------------
# scheduler lattices


def _simplex_options(n_labels: int, step: float) -> List[Tuple[float, ...]]:
    """Lattice points of the label simplex, most-mixed first.

    Sorting by descending minimum weight puts balanced distributions before
    vertices, so enumeration visits gentle adversaries first and reported
    witnesses stay minimal in that order.
    """
    k = max(1, round(1.0 / step))
    # compositions of k into n_labels parts: the first n_labels - 1, and the rest
    opts = {tuple(c / k for c in (*head, k - sum(head)))
            for head in itertools.product(range(k + 1), repeat=n_labels - 1) if sum(head) <= k}
    for i in range(n_labels):  # vertices, in case step does not divide 1
        opts.add(tuple(1.0 if j == i else 0.0 for j in range(n_labels)))
    return sorted(opts, key=lambda w: (-min(w), w))


def _scheduler_products(m: Smdp, options, limit=None):
    """Per-state combinations of the options, in lexicographic order: all of
    them, or `limit` spread evenly over that order when there are more."""
    n, base = len(m.states), len(options)
    lattice = base ** n
    picks = range(lattice) if limit is None or limit >= lattice else (
        i * lattice // limit for i in range(limit))
    for k in picks:  # digit j of k in base len(options) picks state j's option
        yield np.array([options[k // base ** (n - 1 - j) % base] for j in range(n)],
                       dtype=float)  # (n_states, n_labels)


# ---------------------------------------------------------------------------
# word tables

# For a fixed word, the cylinder probability is a polynomial in the scheduler
# weights: each path class of `word_classes` contributes (its transition mass)
# * (product of sigma(s)(a)^count) * F_conv(t).  The tables below freeze the
# exponents and CDF rows so that evaluating schedulers is a vectorized
# power-product.  Each word's level extends its prefix's level, so a word's
# classes cost one letter of path merging.


def _word_tables(u: Smdp, v: Smdp, depth: int, ts: np.ndarray) -> tuple:
    """(words, tables of u, tables of v): the words v spells on some path, up to
    `depth` letters, breadth first and each prefix's extensions in label order,
    and per side each word's (exponents E, masses coeff, CDF rows F on ts), as
    `word_classes` gives its classes.  A side's tables are views of one E, one
    coeff and one F array; each class's law is looked up once per visit counts,
    and one `cdf_table` row serves every == law."""
    walks = (_Walk(u), _Walk(v))
    levels = {(): (initial_level(u, u.initial), initial_level(v, v.initial))}
    live = [()]
    for prefix in live:  # grows while it is walked
        if len(prefix) < depth:
            for a in v.labels:
                slow = walks[1].extend(levels[prefix][1], a)
                if slow:  # v spells prefix + a on some path
                    live.append(prefix + (a,))
                    levels[live[-1]] = (walks[0].extend(levels[prefix][0], a), slow)
    words = live[1:]
    row_of: Dict[object, int] = {}  # law -> its row of the CDF table, by ==
    sides = []
    for k, m in enumerate((u, v)):
        laws: dict = {}  # class_law's cache
        rows: Dict[tuple, int] = {}  # visit counts -> row of its law
        counts, coeff, index, ends = [], [], [], []
        for w in words:
            for c, mass in level_masses(levels[w][k]).items():
                row = rows.get(c)
                if row is None:
                    row = rows[c] = row_of.setdefault(class_law(m, c, laws), len(row_of))
                counts.append(c)
                coeff.append(mass)
                index.append(row)
            ends.append(len(counts))
        sides.append((np.array(counts, dtype=np.int64).reshape(-1, len(m.states) * len(m.labels)),
                      np.array(coeff, dtype=float), index, ends))
    table = cdf_table(list(row_of), ts)
    tables = []
    for E, coeff, index, ends in sides:
        F = table[np.array(index, dtype=np.intp)]
        tables.append([(E[lo:hi], coeff[lo:hi], F[lo:hi]) for lo, hi in zip([0] + ends, ends)])
    return words, tables[0], tables[1]


class _Stack:
    """Several words' tables stacked, evaluated for a batch of schedulers at once.

    The classes are ordered so that the words with equal class counts n are
    contiguous: one power-product gives every class's weight, and one batched
    (points, k, 1, n) @ (k, n, times) product per class count gives its k
    words.  Each (1, n) @ (n, times) item is the product of a one-point,
    one-word call, so every value has that call's bits; spans padded to one
    length would not."""

    def __init__(self, tables):
        sizes = [len(F) for _, _, F in tables]
        order = sorted(range(len(tables)), key=sizes.__getitem__)
        self.E = np.concatenate([tables[i][0] for i in order])
        self.coeff = np.concatenate([tables[i][1] for i in order])
        self.n_words, self.n_ts = len(tables), tables[0][2].shape[1]
        # the words in stack order, back to their own order; None when that is the same
        self.unsort = None if order == list(range(len(tables))) else np.argsort(order)
        self.groups = []  # (first class, class count n, first word, (k, n, times) CDF rows)
        lo = first = 0
        for n, group in itertools.groupby(order, key=sizes.__getitem__):
            F = np.stack([tables[i][2] for i in group])
            self.groups.append((lo, n, first, F))
            lo, first = lo + len(F) * n, first + len(F)

    def eval(self, X: np.ndarray) -> np.ndarray:
        """(points, n_states, n_labels) schedulers -> (points, words, times) probabilities."""
        flat = X.reshape(len(X), -1)
        rows = max(1, _EVAL_BUDGET // max(1, self.E.size))
        W = np.concatenate([np.prod(flat[i:i + rows, None, :] ** self.E, axis=2)
                            for i in range(0, len(flat), rows)]) * self.coeff
        out = np.empty((len(X), self.n_words, 1, self.n_ts))
        for lo, n, first, F in self.groups:
            k = len(F)
            np.matmul(W[:, lo:lo + k * n].reshape(len(X), k, 1, n), F, out=out[:, first:first + k])
        return out[:, :, 0] if self.unsort is None else out[:, self.unsort, 0]


# ---------------------------------------------------------------------------
# coordinate ascent on scheduler matrices


def _ascend(objective, x0: np.ndarray, best: float, delta: float) -> Tuple[np.ndarray, float]:
    """Maximizes objective (a stack of points -> their values; `best` at x0) over the
    product of per-state label simplexes in moves of `delta`, halved after a sweep with
    no gain.  A sweep takes the first improving move in order, evaluating all left at once."""
    x = x0.copy()
    n_s, n_l = x.shape
    moves = np.array([(s, i, j) for s in range(n_s) for i in range(n_l)
                      for j in range(n_l) if i != j], dtype=np.int64).reshape(-1, 3)
    for _ in range(_ASCENT_ITERS):
        improved = False
        pos = np.arange(len(moves))
        while True:
            pos = pos[x[moves[pos, 0], moves[pos, 2]] >= delta - 1e-15]
            if not len(pos):
                break
            s, i, j = moves[pos].T
            ys = np.repeat(x[None], len(pos), axis=0)
            ys[np.arange(len(pos)), s, j] -= delta
            ys[np.arange(len(pos)), s, i] += delta
            vals = objective(ys)
            hit = np.flatnonzero(vals > best + 1e-15)
            if not len(hit):
                break
            x, best, improved = ys[hit[0]], vals[hit[0]], True
            pos = np.arange(pos[hit[0]] + 1, len(moves))
        if not improved:
            delta *= 0.5
            if delta < _MIN_DELTA:
                break
    return x, best


# ---------------------------------------------------------------------------
# faster-than


def _state_map(u: Smdp, v: Smdp) -> Optional[Tuple[Tuple[str, str, str], ...]]:
    """A map h of u's states reachable from u0 onto v's states that proves u
    faster than v, as ((s, h(s), dominance outcome), ...) in breadth-first
    order from h(u0) = v0; None when the search finds none within
    _MAX_CANDIDATES candidate images.

    h must make u lump onto v: for every reachable s and label a, the mass of
    u's row (s, a) on each h-preimage of a v-state s' is at least
    P_v(h(s), a, s'), compared exactly, so that no mass is lost on any step.
    And each residence of s must dominate that of h(s): the proof entry is
    the pair's `_dominance_outcome`, decided once per pair of laws.  Then
    sigma_v o h matches every adversary sigma_v of v at every word and time:
    u projected through h moves at least as much mass as v, and each sojourn
    is stochastically shorter.  An exact lumping implies structural
    bisimilarity, so the candidate images of s are the v-states that
    `bisimilar` (which compares masses in 1e-9 quanta) relates to it once
    every residence is set to exp(1).
    """
    unit = Exponential(1.0)
    shapes = [Smdp(m.labels, m.states, m.initial, {s: unit for s in m.states}, m.transitions)
              for m in (u, v)]
    images: Dict[str, List[str]] = {}
    for su, sv in bisimilar(*shapes).pairs:
        images.setdefault(su, []).append(sv)
    order, seen = [u.initial], {u.initial}  # breadth first from u0, which may only map to v0
    for s in order:  # grows while it is walked
        fresh = [s2 for s2 in u.adjacent(s) if s2 not in seen]
        seen.update(fresh)
        order += fresh
    position = {s: i for i, s in enumerate(order)}
    choices = [[v.initial] if v.initial in images.get(u.initial, ()) else []]
    choices += [sorted(images.get(s, ()), key=v.state_index) for s in order[1:]]
    ready: List[List[str]] = [[] for _ in order]  # states whose rows are mapped once order[i] is
    for s in order:
        ready[max([position[s]] + [position[s2] for s2 in u.adjacent(s)])].append(s)
    outcome = functools.lru_cache(maxsize=None)(_dominance_outcome)  # by pair of laws, for this call

    def dominance(s, t):
        return outcome(u.residence_of(s), v.residence_of(t))

    def lumps(s):
        for a in u.labels:
            mass: Dict[str, float] = {}
            for s2, p in u.succ(s, a).items():
                if p > 0.0:
                    mass[h[s2]] = mass.get(h[s2], 0.0) + p
            if any(mass.get(t, 0.0) < p for t, p in v.succ(h[s], a).items()):
                return False
        return True

    h: Dict[str, str] = {}
    tried = [0] * len(order)  # candidate images of order[i] tried since order[i - 1] was mapped
    i = tries = 0
    while i < len(order):
        if tried[i] == len(choices[i]):  # no image left: remap the state before
            if i == 0:
                return None
            tried[i], i = 0, i - 1
            continue
        tries += 1
        if tries > _MAX_CANDIDATES:
            return None
        s, t = order[i], choices[i][tried[i]]
        tried[i] += 1
        h[s] = t
        if dominance(s, t) and all(lumps(r) for r in ready[i]):
            i += 1
    return tuple((s, h[s], dominance(s, h[s])) for s in order)


def faster_than_bounded(u: Smdp, v: Smdp, depth: int,
                        grid: Optional[GridSpec] = None,
                        search: Optional[SchedulerSearchSpec] = None) -> FasterThanVerdict:
    """Check that u is faster than v: proved by a state map, or bounded.

    A state map (`_state_map`) proves the relation for every depth and time:
    the verdict is NotRefuted with the map as its `proof`, and no adversary is
    visited.  Without one, the adversary loop (`_refute`) decides the bounded
    check.
    """
    require_same_labels(u, v)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return _refute(u, v, depth, grid or GridSpec(), search or SchedulerSearchSpec(), _state_map(u, v))


def _refute(u: Smdp, v: Smdp, depth: int, grid: GridSpec, search: SchedulerSearchSpec,
            proof: Optional[Tuple[Tuple[str, str, str], ...]] = None) -> FasterThanVerdict:
    """The bounded check that u is faster than v, by a search for a counterexample;
    given a state-map `proof`, NotRefuted with that proof and no search.  Either
    way the lattice counts are those of the search.  Without a proof, an
    adversary lattice too large to visit raises.

    For every adversary scheduler of v from the search lattice, the checker
    looks for one scheduler of u that matches every word up to `depth` at
    every grid time (one scheduler per adversary, as in the cylinder-wise
    characterisation of the preorder).  The words are those v spells on some
    path; one walk tabulates them all, and the candidates are evaluated on
    them once.  A word that an adversary spells with probability 0 has slow
    value exactly 0.0, which no fast value fails, so every adversary is
    checked against the same words.  The first adversary with no match
    yields a Refuted verdict with a numeric witness; surviving all
    adversaries yields NotRefuted, which is evidence only up to these bounds.
    """
    u_options = _simplex_options(len(u.labels), search.step)
    v_options = _simplex_options(len(v.labels), search.step)
    lattice = len(u_options) ** len(u.states)
    counts = dict(candidates=min(lattice, _MAX_CANDIDATES), candidate_lattice=lattice,
                  candidates_truncated=lattice > _MAX_CANDIDATES)
    if proof is not None:
        return FasterThanVerdict("NotRefuted", depth, grid, search, **counts, proof=proof)
    n_adversaries = len(v_options) ** len(v.states)
    if n_adversaries > 1_000_000:
        raise SmdpcheckError(
            f"adversary lattice has {n_adversaries} schedulers "
            f"({len(v_options)} options over {len(v.states)} states); "
            "increase the search step or reduce the model")
    ts = grid.times()
    candidates = np.array(list(_scheduler_products(u, u_options, limit=_MAX_CANDIDATES)))
    words, fast_tables, slow_tables = _word_tables(u, v, depth, ts)
    if not words:
        return FasterThanVerdict("NotRefuted", depth, grid, search, **counts)
    fast, slow_stack = _Stack(fast_tables), _Stack(slow_tables)
    cand_vals = fast.eval(candidates)  # (n_candidates, n_words, n_ts)
    cand_max = cand_vals.max(axis=0)

    for sigma in _scheduler_products(v, v_options):
        slow = slow_stack.eval(sigma[None])[0]  # (n_words, n_ts)
        found = None  # (kind, word index, time index, prob_fast, fast scheduler)
        fail_mask = cand_max < slow - _SLACK
        if fail_mask.any():
            wi, ti = np.unravel_index(np.argmax(fail_mask), fail_mask.shape)
            ci = int(cand_vals[:, wi, ti].argmax())
            one = _Stack([fast_tables[wi]])
            x_best, val = _ascend(lambda xs: one.eval(xs)[:, 0, ti],
                                  candidates[ci], cand_vals[ci, wi, ti], search.step)
            if val < slow[wi, ti] - _SLACK:
                found = ("per-cylinder-max", wi, ti, val, x_best)
        if found is None:
            margins = (cand_vals - slow).min(axis=(1, 2))
            ci = int(np.argmax(margins))
            if margins[ci] >= -_SLACK:
                continue  # a candidate matches; the ascent takes only improving moves
            x_best, margin = _ascend(lambda xs: (fast.eval(xs) - slow).min(axis=(1, 2)),
                                     candidates[ci], margins[ci], search.step)
            if margin >= -_SLACK:
                continue  # this adversary is matched; try the next one
            vals = fast.eval(x_best[None])[0]
            wi, ti = np.unravel_index(np.argmax((vals - slow) <= margin + 1e-12), vals.shape)
            found = ("joint-best", wi, ti, vals[wi, ti], x_best)
        kind, wi, ti, prob_fast, x_best = found
        witness = FtWitness(Scheduler.from_matrix(v, sigma), format_word(words[wi]), float(ts[ti]),
                            float(prob_fast), float(slow[wi, ti]), Scheduler.from_matrix(u, x_best), kind)
        return FasterThanVerdict("Refuted", depth, grid, search, witness, **counts)
    return FasterThanVerdict("NotRefuted", depth, grid, search, **counts)


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

    Decided by max-flow on the masses that round to at least one quantum
    (1e-9); the row totals and the flow value need only agree within one
    quantum per entry, so that three branches of 1/3 couple with one of 1.
    """
    p1 = {s: p for s, p in row1.items() if _quantize(p) > 0}
    p2 = {s: p for s, p in row2.items() if _quantize(p) > 0}
    total1, tol = sum(p1.values()), (len(p1) + len(p2)) / _FLOW_SCALE
    if abs(total1 - sum(p2.values())) > tol:
        return False
    if not p1 or not p2:
        return not (p1 or p2)
    if len(p1) == 1 or len(p2) == 1:  # a lone state couples with every state on the other side
        return all((s, s2) in allowed for s in p1 for s2 in p2)
    # source 0 -> (1, row1's state) -> (2, row2's state) -> sink 3
    cap: Dict[object, Dict[object, float]] = {0: {(1, s): p for s, p in p1.items()}, 3: {}}
    cap.update({(1, s): {(2, s2): np.inf for s2 in p2 if (s, s2) in allowed} for s in p1})
    cap.update({(2, s2): {3: p} for s2, p in p2.items()})
    return _max_flow(cap, 0, 3, 1 / _FLOW_SCALE) >= total1 - tol


def _max_flow(cap: Dict[object, Dict[object, float]], source, sink, tol: float) -> float:
    """Max-flow value by shortest augmenting paths on residual capacities `cap`,
    using only residuals above `tol`."""
    flow = 0.0
    while True:
        parent, queue = {source: source}, [source]
        for a in queue:
            for b, c in cap[a].items():
                if c > tol and b not in parent:
                    parent[b] = a
                    queue.append(b)
        if sink not in parent:
            return flow
        path = [sink]
        while path[-1] != source:
            path.append(parent[path[-1]])
        edges = list(zip(path[1:], path))
        push = min(cap[a][b] for a, b in edges)
        for a, b in edges:
            cap[a][b] -= push
            cap[b][a] = cap[b].get(a, 0.0) + push
        flow += push


def simulates(u: Smdp, v: Smdp) -> RelationResult:
    """Does v simulate u (u below v in the simulation preorder)?

    Greatest fixpoint: start from the pairs where v's residence CDF dominates
    u's, then repeatedly drop pairs lacking a label-wise weight function into
    the remaining relation.
    """
    require_same_labels(u, v)
    outcome = functools.lru_cache(maxsize=None)(_dominance_outcome)  # many states share a law
    rel = {(su, sv) for su in u.states for sv in v.states
           if outcome(v.residence_of(sv), u.residence_of(su)) is not None}
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
                if _cdf_equal(rep_d, d):
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
                masses: Dict[int, float] = {}  # block -> mass, rounded once summed
                for s2, p in m.succ(s, a).items():
                    bid = block_of[(tag, s2)]
                    masses[bid] = masses.get(bid, 0.0) + p
                quanta = {bid: _quantize(p) for bid, p in masses.items()}
                sig.append(tuple(sorted((bid, q) for bid, q in quanta.items() if q > 0)))
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
