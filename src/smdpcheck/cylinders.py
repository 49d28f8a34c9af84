"""Probabilities of rectangular and time-bounded cylinder events.

Two independent engines compute time-bounded cylinder probabilities: a
path-enumeration engine that sums symbolic convolutions, and an inductive
engine that tabulates the step recursion on a time grid.  They cross-check
each other in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .distributions import (
    Dirac,
    Distribution,
    Exponential,
    Shifted,
    _canonical_product,
    _gauss_legendre,
    _jumps,
    _scales,
    cdf_table,
    cdf_vec,
    measure_interval,
    sort_key,
)
from .model import Scheduler, Smdp

__all__ = [
    "Interval",
    "RectStep",
    "RectCylinder",
    "TimeBoundedCylinder",
    "prob_rect_cylinder",
    "prob_cylinder_paths",
    "prob_cylinder_inductive",
    "trace_probability",
]

@dataclass(frozen=True)
class Interval:
    """Time interval within [0, inf]; a closed endpoint includes a Dirac atom
    sitting exactly on it, an open endpoint excludes it."""

    lo: float
    hi: float
    closed_lo: bool = True
    closed_hi: bool = True

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi):
            raise ValueError(f"need 0 <= lo <= hi, got [{self.lo}, {self.hi}]")

    @staticmethod
    def upto(t: float) -> "Interval":
        return Interval(0.0, t)

    @staticmethod
    def unbounded() -> "Interval":
        return Interval(0.0, math.inf)


@dataclass(frozen=True)
class RectStep:
    labels: frozenset
    times: tuple  # disjoint, ascending Intervals
    states: frozenset

    def __post_init__(self):
        ivs = tuple(self.times)
        for a, b in zip(ivs, ivs[1:]):
            if b.lo < a.hi or (b.lo == a.hi and a.closed_hi and b.closed_lo):
                raise ValueError("time intervals must be disjoint and ascending")
        object.__setattr__(self, "times", ivs)
        object.__setattr__(self, "labels", frozenset(self.labels))
        object.__setattr__(self, "states", frozenset(self.states))


@dataclass(frozen=True)
class RectCylinder:
    steps: tuple

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a cylinder needs at least one step")
        object.__setattr__(self, "steps", tuple(self.steps))


@dataclass(frozen=True)
class TimeBoundedCylinder:
    """All paths whose first n labels spell `word` within total time `bound`."""

    word: tuple
    bound: float

    def __post_init__(self):
        word = tuple(self.word)
        if not word:
            raise ValueError("a cylinder needs a nonempty word")
        if not (self.bound >= 0.0):
            raise ValueError(f"bound must be >= 0, got {self.bound}")
        object.__setattr__(self, "word", word)


def _tree_sum(values) -> float:
    """Pairwise summation; deterministic regardless of accumulation order quirks."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        vals = [vals[i] + vals[i + 1] if i + 1 < len(vals) else vals[i]
                for i in range(0, len(vals), 2)]
    return vals[0]


def _reached(m: Smdp, sch: Scheduler, s: str, steps) -> list:
    """The states each of `steps`, (labels, allowed states) pairs, can start
    from: s for the first, then every allowed state that a state of the step
    before reaches by a scheduler weight and a transition that are not <= 0
    (a NaN passes, as it does in the value loops)."""
    reached = [{s}]
    for labels, allowed in steps[:-1]:
        reached.append({s2 for st in reached[-1] for a in labels if not sch.weight(st, a) <= 0.0
                        for s2, p in m.succ(st, a).items() if not p <= 0.0 and s2 in allowed})
    return reached


def prob_rect_cylinder(m: Smdp, sch: Scheduler, s: str, c: RectCylinder) -> float:
    """Rectangular cylinder probability by the step recursion.

    Each step contributes the residence mass of its time set at the current
    state times the scheduled transition mass into the allowed states.  One
    loop values each reachable (state, step) once, last step first, so paths
    that meet at a state share the value of their rest.
    """
    for step in c.steps:
        for a in step.labels:
            m.label_index(a)
        for st in step.states:
            m.state_index(st)
    reached = _reached(m, sch, s, [(step.labels, step.states) for step in c.steps])
    later = dict.fromkeys(c.steps[-1].states, 1.0)  # past the last step, 1 at each allowed state
    for step, starts in zip(reversed(c.steps), reversed(reached)):
        values = {}
        for st in starts:
            res = m.residence_of(st)
            res_mass = _tree_sum(
                measure_interval(res, iv.lo, iv.hi, iv.closed_lo, iv.closed_hi) for iv in step.times)
            if res_mass <= 0.0:
                values[st] = 0.0
                continue
            parts = []
            for a in sorted(step.labels):
                w = sch.weight(st, a)
                if not w <= 0.0:
                    parts.extend(w * p * later[s2] for s2, p in sorted(m.succ(st, a).items())
                                 if not p <= 0.0 and s2 in step.states)
            values[st] = res_mass * _tree_sum(parts)
        later = values
    return later[s]


# ---------------------------------------------------------------------------
# path-enumeration engine


def initial_level(m: Smdp, start: str) -> Dict[tuple, float]:
    """The level of the empty word: {(state, visit_counts): mass}."""
    m.state_index(start)
    return {(start, (0,) * (len(m.states) * len(m.labels))): 1.0}


class _Walk:
    """Extends the levels of one model's words letter by letter.  Leaving a state
    by a label counts one more visit of (state, label); that pair's positive
    successors, sorted by state, are listed once per walk, when a level first
    leaves the state by the label, so a walk lists only the rows it reaches."""

    def __init__(self, m: Smdp):
        self.m = m
        self.moves: Dict[str, dict] = {}  # label -> state -> (its counts index, successors)

    def extend(self, level: Dict[tuple, float], a: str) -> Dict[tuple, float]:
        """The level of a word one letter `a` longer than the word of `level`."""
        m = self.m
        ai, n_l = m.label_index(a), len(m.labels)
        moves = self.moves.setdefault(a, {})
        nxt: Dict[tuple, float] = {}
        for (state, counts), mass in level.items():
            move = moves.get(state)
            if move is None:
                row = m.succ(state, a)
                move = moves[state] = (m.state_index(state) * n_l + ai,
                                       [(s2, row[s2]) for s2 in sorted(row, key=m.state_index) if row[s2] > 0.0])
            k, succ = move
            counts2 = counts[:k] + (counts[k] + 1,) + counts[k + 1:]
            for s2, p in succ:
                key = (s2, counts2)
                nxt[key] = nxt.get(key, 0.0) + mass * p
        return nxt


def level_masses(level: Dict[tuple, float]) -> Dict[tuple, float]:
    """Drops the current state of a level's entries: {visit_counts: mass}, in the
    order the counts first appear, each mass summed in the level's order."""
    masses: Dict[tuple, float] = {}
    for (_, counts), mass in level.items():
        masses[counts] = masses.get(counts, 0.0) + mass
    return masses


def class_law(m: Smdp, counts: tuple, laws: dict) -> Distribution:
    """The law of a path class: the canonical product of the residences its
    visit counts imply.  `laws`, shared by calls on the same model while the
    model lives, holds the laws by the residence multiset, each residence
    known by its identity: states that share a residence object share a law,
    and == laws with other bits (Exponential(1) and Exponential(1.0)) do not."""
    n_l = len(m.labels)
    parts = [m.residence[m.states[pos // n_l]] for pos, k in enumerate(counts) if k for _ in range(k)]
    key = tuple(sorted(map(id, parts)))
    law = laws.get(key)
    if law is None:
        law = laws[key] = _canonical_product(parts)
    return law


def word_classes(m: Smdp, start: str, word) -> Dict[Tuple[Distribution, tuple], float]:
    """Groups the state paths spelling `word` from `start` into scheduler-free classes.

    Returns {(law, visit_counts): transition mass}.  `law` is the convolution
    of the visited states' residences, `visit_counts[si * n_labels + ai]`
    counts the steps that leave state si by label ai, and the mass sums the
    products of transition probabilities over the class's paths.  Under a
    memoryless scheduler sigma a path weighs its mass times the monomial
    prod sigma[si, ai] ** count, so these classes are everything the
    path-sum engines need.  Paths merge level by level on (current state,
    counts).  The counts fix the law: its shift is the math.fsum of the
    Dirac points and shifts they imply, whatever the order of the path.
    """
    walk, level, laws = _Walk(m), initial_level(m, start), {}
    for a in word:
        level = walk.extend(level, a)
    return {(class_law(m, counts, laws), counts): mass for counts, mass in level_masses(level).items()}


def word_terms(m: Smdp, sch: Scheduler, start: str, word) -> Dict[Distribution, float]:
    """Groups the state paths spelling `word` by their absorption-time law.

    Returns {convolved residence distribution: total effective weight under
    `sch`}; laws reached only by zero-weight paths are left out.
    """
    flat = sch.matrix(m).ravel().tolist()
    terms: Dict[Distribution, float] = {}
    for (law, counts), mass in word_classes(m, start, word).items():
        weight = mass * math.prod(w ** c for w, c in zip(flat, counts) if c)
        if weight > 0.0:
            terms[law] = terms.get(law, 0.0) + weight
    return terms


def prob_cylinder_paths(m: Smdp, sch: Scheduler, s: str, c: TimeBoundedCylinder) -> float:
    """Sum over state paths of effective weight times the convolution CDF."""
    terms = word_terms(m, sch, s, c.word)
    ordered = sorted(terms.items(), key=lambda kv: sort_key(kv[0]))
    cdfs = cdf_table([d for d, _ in ordered], (c.bound,))[:, 0].tolist()
    return _tree_sum(w * F for (_, w), F in zip(ordered, cdfs))


def trace_probability(m: Smdp, sch: Scheduler, word) -> float:
    """Probability of emitting `word` with no time bound."""
    return _tree_sum(word_terms(m, sch, m.initial, word).values())


# ---------------------------------------------------------------------------
# inductive (grid-tabulation) engine


_CELL_POINTS = 8  # Gauss-Legendre nodes per grid cell for the mean of a CDF


def _fft_len(n: int) -> int:
    """The shortest length 2^a 3^b 5^c >= n: numpy's FFT is fastest on these."""
    bits = n.bit_length()
    return min(m << (-(-n // m) - 1).bit_length()
               for m in (3 ** b * 5 ** c for b in range(bits) for c in range(bits)))


def _continuous_cdf(d: Distribution, ts: np.ndarray, jumps) -> np.ndarray:
    """F_d on ts less the steps of the atoms in `jumps` (d's `_jumps`)."""
    return cdf_vec(d, ts) - sum(m * (ts >= x) for x, m in jumps)


def _kernel(d: Distribution, xs: np.ndarray) -> tuple:
    """Product-integration weights of the law d on the uniform grid xs.

    With G linear on each cell [x_i, x_i+1] of width h,
        int G(x_j - s) dF(s) = F_0 G_j + sum_{i<j} a_i G_{j-i} + b_i G_{j-i-1},
    where a_i = A_i - F_i, b_i = F_{i+1} - A_i and A_i is the mean of F over
    cell i (Linz, Analytical and Numerical Methods for Volterra Equations,
    SIAM 1985, ch. 7).  That is the convolution of G with K (K_0 = F_0 + a_0,
    K_m = a_m + b_{m-1}) less a_j G_0.  A_i takes _CELL_POINTS Gauss-Legendre
    nodes on F's continuous part plus each atom x's exact share of the cell,
    clip((x_{i+1} - x) / h, 0, 1), so an atom of d costs no quadrature error.
    Exponential laws do not come here: _exp_rows applies their K by its
    closed form.  Returns (a padded with a_N = 0, the real FFT of K, the
    transform length).
    """
    n = len(xs)
    h = float(xs[-1]) / (n - 1)
    jumps = _jumps(d)
    nodes, weights = _gauss_legendre(_CELL_POINTS)
    F = cdf_vec(d, xs)
    means = 0.5 * (_continuous_cdf(d, xs[:-1, None] + (0.5 * h) * (1.0 + nodes), jumps) @ weights)
    means = means + sum(m * np.clip((xs[1:] - x) / h, 0.0, 1.0) for x, m in jumps)
    a = np.append(means - F[:-1], 0.0)
    kernel = a + np.concatenate((F[:1], F[1:] - means))
    size = _fft_len(2 * n - 1)
    return a, np.fft.rfft(kernel, size), size


def _exp_rows(G: np.ndarray, x: float) -> np.ndarray:
    """_kernel's rule for Exponential(rate) on the rows of G, x = rate * h.

    With q = e^-x and w = 1 - q, F's cell means are exact and the kernel is
    geometric: K_0 = alpha = 1 - w/x, K_m = q^(m-1) w^2/x and a_j = alpha q^j,
    so each row is H_j = alpha G_j + (w^2/x) z_(j-1) - alpha q^j G_0 with
    z_j = q z_(j-1) + G_j.  A doubling scan computes z: pass k adds q^k times
    z shifted by k, for k = 1, 2, 4, ..., so each z_j is a sum of nonnegative
    terms rounded in at most log2(n) passes; it stops once q^k is 0.0, when a
    pass would add only zeros.  alpha takes its series where 1 - w/x
    cancels, and w^2/x is w * (w/x), so x = 0 gives 0 and a subnormal x
    loses no bits.
    """
    q, w = math.exp(-x), -math.expm1(-x)
    ratio = w / x if x > 0.0 else 1.0
    alpha = x * (1 / 2 - x * (1 / 6 - x * (1 / 24 - x * (1 / 120 - x / 720)))) if x < 1e-3 else 1.0 - ratio
    z, n, k = G.copy(), G.shape[1], 1
    while k < n and (qk := q ** k) > 0.0:
        z[:, k:] += qk * z[:, :-k]
        k *= 2
    rows = alpha * G - (alpha * q ** np.arange(n)) * G[:, :1]
    rows[:, 1:] += (w * ratio) * z[:, :-1]
    return rows


class _Tab:
    """A tabulated sub-CDF split into a continuous part and exact step atoms.

    Product integration takes the continuous part as linear on each grid
    cell; an atom kept symbolic costs no O(h) error of an interpolated jump.
    Each atom is keyed by the sorted tuple of the points that make it up
    (Dirac points, shifts and the jumps of other laws) and sits at their
    math.fsum, as a path class's shift does in the path engine.
    """

    __slots__ = ("smooth", "atoms")

    def __init__(self, smooth: np.ndarray, atoms=()):
        self.smooth = smooth
        self.atoms = dict(atoms)

    def value_at_end(self, t: float) -> float:
        return float(self.smooth[-1]) + sum(m for pts, m in self.atoms.items() if math.fsum(pts) <= t)


def _residence_split(d: Distribution, mass: float, xs: np.ndarray) -> _Tab:
    """The last residence of a word as a _Tab: a shifted Dirac's atom is keyed by
    its point and its shifts, as _conv_tabs keys it; any other atom by its float."""
    jumps, points, base = _jumps(d), [], d
    while isinstance(base, Shifted):
        points.append(base.shift)
        base = base.base
    atoms = ({tuple(sorted((base.point, *points))): mass} if isinstance(base, Dirac)
             else {(x,): mass * m for x, m in jumps})
    return _Tab(mass * _continuous_cdf(d, xs, jumps), atoms)


def _conv_tabs(d: Distribution, tabs: list, xs: np.ndarray, spectra: dict) -> list:
    """(d * tab) on the grid for each tab; residence atoms shift, an
    exponential goes through its kernel's geometric recursion (_exp_rows),
    and any other law through its product-integration kernel (_kernel, built
    once per law in `spectra`) and one batched FFT product."""
    if isinstance(d, (Dirac, Shifted)):
        shift = d.point if isinstance(d, Dirac) else d.shift
        inner = tabs if isinstance(d, Dirac) else _conv_tabs(d.base, tabs, xs, spectra)
        return [_Tab(np.interp(xs - shift, xs, tab.smooth, left=0.0),
                     {key: m for pts, m in tab.atoms.items()
                      if math.fsum(key := tuple(sorted((*pts, shift)))) <= xs[-1]})
                for tab in inner]
    G = np.array([tab.smooth for tab in tabs])
    if isinstance(d, Exponential):
        rows = _exp_rows(G, d.rate * (float(xs[-1]) / (len(xs) - 1)))
    else:
        if d not in spectra:
            spectra[d] = _kernel(d, xs)
        a, spec, size = spectra[d]
        rows = np.fft.irfft(spec * np.fft.rfft(G, size), size)[:, :len(xs)] - a * G[:, :1]
    jumps = _jumps(d)
    out = []
    for smooth, tab in zip(np.clip(rows, 0.0, 1.0), tabs):
        atoms: Dict[tuple, float] = {}
        for pts, m in tab.atoms.items():
            smooth = smooth + m * _continuous_cdf(d, xs - math.fsum(pts), jumps)
            for x, mx in jumps:
                key = tuple(sorted((*pts, x)))
                if math.fsum(key) <= xs[-1]:
                    atoms[key] = atoms.get(key, 0.0) + m * mx
        out.append(_Tab(smooth, atoms))
    return out


def _grid_points(m: Smdp, t: float) -> int:
    """Steps of the inductive grid on [0, t]: 1024 to 200,000, more for sharper
    rates, so that table interpolation stays below the cross-engine tolerance."""
    rate = max([1.0] + [_scales(m.residence_of(x))[1] for x in m.states])
    return max(1024, math.ceil(min(250.0 * rate * t, 200_000)))


def prob_cylinder_inductive(m: Smdp, sch: Scheduler, s: str, c: TimeBoundedCylinder) -> float:
    """Tabulates the step recursion for the word on a shared time grid.

    Each level convolves the current residence law with the tabulated
    continuation sub-CDFs of the states that share it, by product
    integration, which reads only the law's CDF: an exponential law by its
    kernel's geometric recursion (_exp_rows), with no kernel table and no
    FFT; any other continuous law by one kernel and one FFT per law and call
    and one batched FFT product per level.  Atoms stay symbolic, and the
    value is clipped to [0, 1], a NaN kept.  _grid_points sizes the grid.
    At t = 0 and t = inf the cylinder is the rectangular one whose every
    step's residence lies in [0, t], and `prob_rect_cylinder` computes it
    with no grid.
    """
    word = c.word
    t = c.bound
    m.state_index(s)
    for a in word:
        m.label_index(a)
    if t <= 0.0 or t == math.inf:
        return prob_rect_cylinder(m, sch, s, RectCylinder(
            [RectStep({a}, (Interval.upto(t),), m.states) for a in word]))

    xs = np.linspace(0.0, t, _grid_points(m, t) + 1)

    every = set(m.states)
    needed = _reached(m, sch, s, [((a,), every) for a in word])

    n = len(word)
    tables: Dict[str, _Tab] = {}
    for st in sorted(needed[n - 1]):
        mass = sch.weight(st, word[-1]) * sum(m.succ(st, word[-1]).values())
        tables[st] = _residence_split(m.residence_of(st), mass, xs)
    spectra: dict = {}
    for k in range(n - 2, -1, -1):
        a = word[k]
        nxt_tables: Dict[str, _Tab] = {}
        groups: Dict[Distribution, list] = {}  # residence law -> [(state, continuation)]
        for st in sorted(needed[k]):
            w_label = sch.weight(st, a)
            if w_label <= 0.0:
                nxt_tables[st] = _Tab(np.zeros_like(xs))
                continue
            smooth = np.zeros_like(xs)
            atoms: Dict[tuple, float] = {}
            for s2, p in sorted(m.succ(st, a).items()):
                if p > 0.0:
                    sub = tables[s2]
                    smooth = smooth + w_label * p * sub.smooth
                    for pts, mass in sub.atoms.items():
                        atoms[pts] = atoms.get(pts, 0.0) + w_label * p * mass
            groups.setdefault(m.residence_of(st), []).append((st, _Tab(smooth, atoms)))
        for d, group in groups.items():
            nxt_tables.update(zip([st for st, _ in group],
                                  _conv_tabs(d, [tab for _, tab in group], xs, spectra)))
        tables = nxt_tables
    return float(np.clip(tables[s].value_at_end(t), 0.0, 1.0))

