"""Shared helpers for the test suite: random models and independent oracles."""

import itertools
import math
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from smdpcheck.distributions import (
    Dirac,
    Distribution,
    DominanceVerdict,
    Exponential,
    GridSpec,
    MinMaxCdf,
    NumericConvolution,
    PhaseType,
    Shifted,
    Uniform,
    _analytic_dominance_rule,
    _dominance_t_max,
    _scales,
    cdf_eval,
    cdf_vec,
    compose_residence,
    convolve,
    dominates,
    pdf_vec,
)
from smdpcheck.composition import compose, composite_name, require_same_labels
from smdpcheck.cylinders import (
    Interval,
    RectCylinder,
    RectStep,
    TimeBoundedCylinder,
    _Tab,
    prob_rect_cylinder,
    word_classes,
)
from smdpcheck.errors import SmdpcheckError
from smdpcheck.model import Scheduler, Smdp, has_deterministic_kernel
from smdpcheck.monotonicity import (
    MonotonicityReport,
    MonotonicityViolation,
    _RATIO_TOL,
    _best_assignment,
    path_bound,
)
from smdpcheck import relations
from smdpcheck.relations import (
    _SLACK,
    FasterThanVerdict,
    FtWitness,
    SchedulerSearchSpec,
    _quantize,
    _scheduler_products,
    _simplex_options,
    _weight_function_exists,
    format_word,
)


def random_two_label_model(rng, n_max=3, det=False, live_initial=False, labels=("a", "b")):
    """Small SMDP over `labels` (two by default) with masses on a coarse grid
    (away from borderline)."""
    n = rng.randint(1, n_max)
    names = [f"s{i}" for i in range(n)]
    residence = {s: Exponential(round(rng.uniform(0.2, 3.0), 2)) for s in names}
    grid = [0.2, 0.4, 0.5, 0.6, 0.8, 1.0]
    trans = {}
    for s in names:
        for a in labels:
            if rng.random() < 0.75:
                if det:
                    trans[(s, a)] = {rng.choice(names): rng.choice(grid)}
                else:
                    targets = rng.sample(names, k=min(n, rng.randint(1, 2)))
                    mass = rng.choice(grid)
                    trans[(s, a)] = {t: round(mass / len(targets), 6) for t in targets}
    if live_initial and (names[0], "a") not in trans:
        trans[(names[0], "a")] = {names[-1]: 1.0}
    return Smdp(list(labels), names, names[0], residence, trans)


def random_context_composite(rng, kind: str, op: str):
    """(composite, mean residence): a one-label 3-state chain with a branch
    and exponential residences, composed under `op` with a 3-state cyclic
    context whose residences are all Dirac, uniform or exponential (`kind`)."""
    names = ["u0", "u1", "u2"]
    p = rng.choice((0.5, 0.7))
    u = Smdp(["a"], names, "u0", {s: Exponential(round(rng.uniform(0.4, 2.0), 1)) for s in names},
             {("u0", "a"): {"u1": p, "u2": round(1.0 - p, 6)},
              ("u1", "a"): {"u2": 1.0}, ("u2", "a"): {"u0": 1.0}})
    contexts = {"dirac": lambda: Dirac(rng.choice((0.25, 0.5, 0.75, 1.0))),
                "uniform": lambda: Uniform(lo := round(rng.uniform(0.0, 0.5), 2),
                                           round(lo + rng.uniform(0.5, 1.5), 2)),
                "exp": lambda: Exponential(round(rng.uniform(0.5, 3.0), 1))}
    wnames = ["w0", "w1", "w2"]
    w = Smdp(["a"], wnames, "w0", {s: contexts[kind]() for s in wnames},
             {("w0", "a"): {"w1": 1.0}, ("w1", "a"): {"w2": 1.0}, ("w2", "a"): {"w0": 1.0}})
    means = [1.0 / d.rate if isinstance(d, Exponential) else
             d.point if isinstance(d, Dirac) else 0.5 * (d.lo + d.hi)
             for m in (u, w) for d in (m.residence_of(s) for s in m.states)]
    return compose(u, w, op), sum(means) / len(means)


def oracle_word_terms(m, sch, start, word):
    """Brute-force {absorption-time law: total weight} of the paths spelling `word`.

    Enumerates every state sequence of length len(word) after `start`,
    weighs it by scheduler weight times transition probability step by
    step, and convolves the residences in path order.  Paths of zero
    weight are left out.
    """
    terms = {}
    for rest in itertools.product(m.states, repeat=len(word)):
        path = (start,) + rest
        weight, law = 1.0, Dirac(0.0)
        for state, a, nxt in zip(path, word, rest):
            weight *= sch.weight(state, a) * m.succ(state, a).get(nxt, 0.0)
            law = convolve(law, m.residence_of(state))
        if weight > 0.0:
            terms[law] = terms.get(law, 0.0) + weight
    return terms


def oracle_path_laws(m, start, word):
    """(path-order law, visit counts) of every state path spelling `word` from
    `start` with positive transition mass, the law convolved as
    oracle_word_terms convolves it."""
    n_l = len(m.labels)
    out = []
    for rest in itertools.product(m.states, repeat=len(word)):
        path = (start,) + rest
        mass, law, counts = 1.0, Dirac(0.0), [0] * (len(m.states) * n_l)
        for state, a, nxt in zip(path, word, rest):
            mass *= m.succ(state, a).get(nxt, 0.0)
            law = convolve(law, m.residence_of(state))
            counts[m.state_index(state) * n_l + m.label_index(a)] += 1
        if mass > 0.0:
            out.append((law, tuple(counts)))
    return out


def reference_bisect_sign_change(a, b, lo, hi, above):
    """distributions._bisect_sign_change with scalar cdf_eval."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        diff = cdf_eval(a, mid) - cdf_eval(b, mid)
        if diff == 0.0:
            return mid
        if (diff > 0.0) == above:
            lo = mid
        else:
            hi = mid
    return hi


def lattice_points(n_labels, step=0.1):
    k = round(1.0 / step)
    pts = []
    for combo in itertools.product(range(k + 1), repeat=n_labels):
        if sum(combo) == k:
            pts.append(tuple(c / k for c in combo))
    return pts


def layers_of(m, n):
    out = [None, [m.initial]]
    for _ in range(2, n + 1):
        prev = out[-1]
        nxt = sorted({s2 for s in prev for s2 in m.adjacent(s)}, key=m.states.index)
        out.append(nxt)
    return out


def oracle_bounded_monotonicity(u, v, w, w2, op, n, tol=1e-9):
    """Exhaustive scheduler-grid check of n-monotonicity (step 0.1).

    Universal scheduler quantifiers run over the lattice; the existentials
    are decided per state by exact feasibility of the required weights
    (schedulers on distinct states combine freely, so states separate).
    """
    if not has_deterministic_kernel(w2):
        return False
    lu, lv, lw, lw2 = (layers_of(x, n) for x in (u, v, w, w2))
    labels = u.labels
    # condition 1: composite CDFs straddle the component CDFs
    for i in range(1, n + 1):
        for uu in lu[i]:
            for ww in lw[i]:
                comp = compose_residence(op, u.residence_of(uu), w.residence_of(ww))
                if not dominates(comp, u.residence_of(uu)).holds:
                    return False
        for vv in lv[i]:
            for ww2 in lw2[i]:
                comp = compose_residence(op, v.residence_of(vv), w2.residence_of(ww2))
                if not dominates(v.residence_of(vv), comp).holds:
                    return False
    # condition 2: for each lattice sigma_U, the composite scheduler needs
    # x_a >= sigma_U(u)(a) * tau_U / (tau_U * tau_W) over the adjacency pairs
    for i in range(1, n):
        for uu in lu[i]:
            for ww in lw[i]:
                if not w.adjacent(ww):
                    continue
                for sig in lattice_points(len(labels)):
                    need = 0.0
                    for a, weight in zip(labels, sig):
                        if weight == 0.0:
                            continue
                        if not any(p > 0.0 for p in u.succ(uu, a).values()):
                            continue
                        worst = 0.0
                        for w_next in w.adjacent(ww):
                            pw = w.succ(ww, a).get(w_next, 0.0)
                            if pw <= 0.0:
                                worst = float("inf")
                                break
                            worst = max(worst, 1.0 / pw)
                        need += weight * worst
                    if need > 1.0 + tol:
                        return False
    # condition 3: adversary composite schedulers range over the lattice per
    # co-occurring context state; sigma_V needs mass above the forced maxima
    co_occur = {}
    for i in range(1, n):
        for vv in lv[i]:
            for ww2 in lw2[i]:
                co_occur.setdefault(vv, set()).add(ww2)
    for vv, ctxs in co_occur.items():
        ctxs = sorted(ctxs, key=w2.states.index)
        forced = {}
        for ww2 in ctxs:
            forced[ww2] = {}
            for a in labels:
                if not any(p > 0.0 for p in v.succ(vv, a).values()):
                    continue
                vals = [p for s2, p in w2.succ(ww2, a).items()
                        if p > 0.0 and s2 in w2.adjacent(ww2)]
                if vals:
                    forced[ww2][a] = max(vals)
        for assignment in itertools.product(lattice_points(len(labels)), repeat=len(ctxs)):
            need = {a: 0.0 for a in labels}
            for ww2, z in zip(ctxs, assignment):
                for a, weight in zip(labels, z):
                    if weight > 0.0 and a in forced[ww2]:
                        need[a] = max(need[a], weight * forced[ww2][a])
            if sum(need.values()) > 1.0 + tol:
                return False
    return True


def reference_grid_times(t_max: float, points: int) -> np.ndarray:
    """The dominance grid as the geometric GridSpec(t_max, points).times()
    built it when GridSpec also served dominance."""
    lin = np.linspace(0.0, t_max, points // 2 + 1)
    geo = t_max * np.logspace(-8, 0, points - points // 2)
    return np.unique(np.concatenate(([0.0], lin, geo)))


def _scalar_grid_scan(d1, d2, points):
    """The deepest violation on the dominance grid (its first occurrence),
    scanned point by point with scalar cdf_eval; None when there is none."""
    ts = [float(t) for t in reference_grid_times(_dominance_t_max(d1, d2), points)]
    diffs = [cdf_eval(d1, t) - cdf_eval(d2, t) for t in ts]
    worst = min(range(len(ts)), key=lambda i: diffs[i])
    return ts[worst] if diffs[worst] < 0.0 else None


def reference_dominates(d1, d2):
    """`dominates` on its default grid, scanned point by point with scalar cdf_eval."""
    holds = _analytic_dominance_rule(d1, d2)
    if holds:
        return DominanceVerdict("HoldsAnalytic")
    for points in (512, 8192) if holds is False else (512,):
        witness = _scalar_grid_scan(d1, d2, points)
        if witness is not None:
            return DominanceVerdict("FailsAtWitness", witness_t=witness)
    return DominanceVerdict("HoldsOnGrid" if holds is None else "FailsAtWitness")


def reference_simulates(u, v):
    """Greatest simulation fixpoint, calling `dominates` once per state pair."""
    rel = {(su, sv) for su in u.states for sv in v.states
           if dominates(v.residence_of(sv), u.residence_of(su)).holds}
    changed = True
    while changed:
        changed = False
        for su, sv in sorted(rel):
            if not all(_weight_function_exists(u.succ(su, a), v.succ(sv, a), rel) for a in u.labels):
                rel.discard((su, sv))
                changed = True
    return (u.initial, v.initial) in rel, tuple(sorted(rel))


def reference_bisimilar(u, v):
    """Partition refinement from blocks of two-way `dominates`, one call per state and block."""
    union = [("L", u, s) for s in u.states] + [("R", v, s) for s in v.states]
    reps = []
    block = {}
    for tag, m, s in union:
        d = m.residence_of(s)
        bid = next((b for rep, b in reps
                    if rep == d or (dominates(rep, d).holds and dominates(d, rep).holds)), None)
        if bid is None:
            bid = len(reps)
            reps.append((d, bid))
        block[(tag, s)] = bid
    while True:
        keys = {}
        for tag, m, s in union:
            sig = []
            for a in u.labels:
                masses = {}
                for s2, p in m.succ(s, a).items():
                    masses[block[(tag, s2)]] = masses.get(block[(tag, s2)], 0.0) + p
                quanta = {b: _quantize(p) for b, p in masses.items()}  # rounded once summed
                sig.append(tuple(sorted((b, q) for b, q in quanta.items() if q > 0)))
            keys[(tag, s)] = (block[(tag, s)], tuple(sig))
        ids = {}
        new_block = {st: ids.setdefault(keys[st], len(ids)) for st in keys}
        if new_block == block:
            break
        block = new_block
    pairs = tuple(sorted((su, sv) for su in u.states for sv in v.states
                         if block[("L", su)] == block[("R", sv)]))
    return block[("L", u.initial)] == block[("R", v.initial)], pairs


def reference_inverse_cdf(d, q):
    """One sample's inverse CDF, with scalar cdf_eval: a bracket doubled from
    1.0 while F(hi) < q (up to 1e12), then bisection to 1e-9, returning hi."""
    if isinstance(d, Dirac):
        return d.point
    if isinstance(d, Exponential):
        return -math.log1p(-q) / d.rate
    if isinstance(d, Uniform):
        return d.lo + q * (d.hi - d.lo)
    hi = 1.0
    while cdf_eval(d, hi) < q and hi < 1e12:
        hi *= 2.0
    lo = 0.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if cdf_eval(d, mid) < q:
            lo = mid
        else:
            hi = mid
    return hi


def _reference_kinks(d: Distribution, t_max: float) -> list:
    """Points where F_d or its density may kink, found without the kernel:
    uniform ends, atoms, shifts, and min/max crossings located by a scalar
    scan of [0, t_max] at 4000 steps and 200 bisection steps each."""
    if isinstance(d, Dirac):
        return [d.point]
    if isinstance(d, Uniform):
        return [d.lo, d.hi]
    if isinstance(d, Shifted):
        return [d.shift] + [d.shift + k for k in _reference_kinks(d.base, t_max)]
    if isinstance(d, MinMaxCdf):
        a, b = d.parts
        out = _reference_kinks(a, t_max) + _reference_kinks(b, t_max)
        diff = lambda x: cdf_eval(a, x) - cdf_eval(b, x)  # noqa: E731
        signed = [(x, v) for x in np.linspace(0.0, t_max, 4001).tolist() if (v := diff(x)) != 0.0]
        for (lo, v_lo), (hi, v_hi) in zip(signed, signed[1:]):
            if (v_lo > 0.0) != (v_hi > 0.0):
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if (diff(mid) > 0.0) == (v_lo > 0.0) else (lo, mid)
                out.append(hi)
        return out
    if isinstance(d, NumericConvolution):
        sums = [0.0]
        for f in d.factors:
            sums = [s + k for s in sums for k in [0.0] + _reference_kinks(f, t_max)]
        return sums
    return []


def _reference_density(d: Distribution, xs: np.ndarray) -> np.ndarray:
    """Density of the absolutely continuous part of a law that is not a convolution."""
    if isinstance(d, Dirac):
        return np.zeros_like(xs)
    if isinstance(d, Exponential):
        return np.where(xs >= 0.0, d.rate * np.exp(-d.rate * np.maximum(xs, 0.0)), 0.0)
    if isinstance(d, Uniform):
        return np.where((xs > d.lo) & (xs < d.hi), 1.0 / (d.hi - d.lo), 0.0)
    if isinstance(d, PhaseType):
        return pdf_vec(d, xs)
    if isinstance(d, Shifted):
        return _reference_density(d.base, xs - d.shift)
    a, b = d.parts
    fa, fb = cdf_vec(a, xs), cdf_vec(b, xs)
    pick_a = fa <= fb if d.kind == "min" else fa >= fb
    return np.where(pick_a, _reference_density(a, xs), _reference_density(b, xs))


def reference_conv_cdf(d: NumericConvolution, ts, splits: int = 200, nodes: int = 16) -> np.ndarray:
    """F of a convolution at each time in ts, by a refined-split Stieltjes sum.

    The last factor is the integrator, the others' convolution the integrand.
    [0, t] is cut at the kinks of both sides, every piece is split `splits`
    times more and takes `nodes` Gauss-Legendre nodes; each atom x of the
    integrator adds (F(x) - F(x-)) * F_rest(t - x), the jump read off the
    scalar CDF at x and at the float below x.  Nested convolutions recurse.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size == 0:
        return ts
    *others, head = d.factors
    rest = others[0] if len(others) == 1 else NumericConvolution(tuple(others))
    t_max = max(float(ts.max()), 0.0)
    head_kinks, rest_kinks = _reference_kinks(head, t_max), _reference_kinks(rest, t_max)
    atoms = [(x, m) for x in sorted(set(head_kinks))
             if (m := cdf_eval(head, x) - cdf_eval(head, math.nextafter(x, -math.inf))) > 1e-12]
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    out = []
    for t in ts.tolist():
        if t < 0.0:
            out.append(0.0)
            continue
        cuts = sorted({0.0, t} | {k for k in head_kinks if 0.0 < k < t}
                      | {t - k for k in rest_kinks if 0.0 < t - k < t})
        edges = np.concatenate([np.linspace(a, b, splits + 1)[:-1] for a, b in zip(cuts, cuts[1:])] + [[t]])
        half = 0.5 * np.diff(edges)[:, None]
        xs = ((edges[:-1, None] + half) + half * gx).ravel()
        points = np.concatenate((t - xs, [t - x for x, _ in atoms]))
        if isinstance(rest, NumericConvolution):
            values = reference_conv_cdf(rest, points, splits, nodes)
        else:
            values = cdf_vec(rest, points)
        dens = _reference_density(head, xs) * (half * gw).ravel()
        out.append(float(dens @ values[:len(xs)]) + sum(m * v for (_, m), v in zip(atoms, values[len(xs):])))
    return np.array(out)


def reference_best_assignment(pressures):
    """Best injective label -> context-state assignment, by enumerating every
    label subset and every ordered choice of context states for it."""
    labels = [a for a in pressures if pressures[a]]
    ctx_states = sorted({s for a in labels for s in pressures[a]})
    best = 0.0
    for k in range(1, min(len(labels), len(ctx_states)) + 1):
        for chosen in itertools.combinations(labels, k):
            for assigned in itertools.permutations(ctx_states, k):
                val = sum(pressures[a].get(s, 0.0) for a, s in zip(chosen, assigned))
                best = max(best, val)
    return best


def scipy_best_assignment(pressures):
    """Best injective label -> context-state assignment by scipy's
    `linear_sum_assignment`, its chosen entries summed by numpy."""
    labels = [a for a in pressures if pressures[a]]
    ctx_states = sorted({s for a in labels for s in pressures[a]})
    weights = np.array([[pressures[a].get(s, 0.0) for s in ctx_states] for a in labels], ndmin=2)
    rows, cols = linear_sum_assignment(weights, maximize=True)
    return float(weights[rows, cols].sum())


def reference_weight_function_exists(row1: Dict[str, float], row2: Dict[str, float], allowed) -> bool:
    """`_weight_function_exists` decided by scipy's `maximum_flow` on a sparse graph;
    the quantized total of a row with mass at most one fits its int32 capacities."""
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


def reference_ascend(objective, x0: np.ndarray, search: SchedulerSearchSpec):
    """Coordinate ascent that evaluates one move at a time and takes each
    improving move at once; objective maps one point to its value."""
    x = x0.copy()
    best = objective(x)
    delta = search.step
    n_s, n_l = x.shape
    for _ in range(relations._ASCENT_ITERS):
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
            if delta < relations._MIN_DELTA:
                break
    return x, best


def _first_true(mask: np.ndarray) -> Tuple[int, int]:
    flat = int(np.argmax(mask))
    return flat // mask.shape[1], flat % mask.shape[1]


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


def reference_faster_than(u: Smdp, v: Smdp, depth: int,
                          grid: Optional[GridSpec] = None,
                          search: Optional[SchedulerSearchSpec] = None) -> FasterThanVerdict:
    """`faster_than_bounded` with one power-product call per (candidate, word)
    and per ascent move, and every word's table built from the root."""
    require_same_labels(u, v)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    grid = grid or GridSpec(t_max=10.0, points=5)
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
    candidates = list(_scheduler_products(u, u_options, limit=relations._MAX_CANDIDATES))
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
            x_best, val = reference_ascend(
                lambda x, _tb=tb, _ti=ti: float(_tb.eval(x.ravel())[_ti]), x0, search)
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
            x_best, margin = reference_ascend(joint, x0, search)
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


def _reference_atoms(d: Distribution, t_max: float) -> list:
    """(x, F(x) - F(x-)) for each atom x <= t_max of a law that is not a
    convolution, the jump read off the scalar CDF at x and at the float below."""
    return [(x, m) for x in sorted(set(_reference_kinks(d, t_max)))
            if x <= t_max and (m := cdf_eval(d, x) - cdf_eval(d, math.nextafter(x, -math.inf))) > 1e-12]


def _reference_continuous_cdf(d: Distribution, ts: np.ndarray, atoms) -> np.ndarray:
    return cdf_vec(d, ts) - sum(m * (ts >= x) for x, m in atoms)


def _reference_product_integral(d: Distribution, G: np.ndarray, xs: np.ndarray, atoms) -> np.ndarray:
    """int G(x_j - s) dF_d(s) at every grid point, G linear on each cell.

    Cell i contributes a_i G_{j-i} + b_i G_{j-i-1} with a_i = A_i - F_i and
    b_i = F_{i+1} - A_i, A_i the mean of F over the cell: 8 Gauss-Legendre
    nodes on F less its atoms' steps, plus each atom's share of the cell.
    The sum over cells i < j is one direct np.convolve.
    """
    n = len(xs)
    h = float(xs[1] - xs[0])
    gx, gw = np.polynomial.legendre.leggauss(8)
    F = cdf_vec(d, xs)
    nodes = xs[:-1, None] + 0.5 * h * (1.0 + gx)
    means = 0.5 * (_reference_continuous_cdf(d, nodes, atoms) @ gw)
    for x, m in atoms:
        means += m * np.clip((xs[1:] - x) / h, 0.0, 1.0)
    a, b = means - F[:-1], F[1:] - means
    weights = np.zeros(n)
    weights[0] = F[0]
    weights[:-1] += a
    weights[1:] += b
    out = np.convolve(weights, G)[:n]
    out[:-1] -= a * G[0]  # the cell past x_j is not in [0, x_j]
    return out


def _reference_conv_tab(d: Distribution, tab: _Tab, xs: np.ndarray) -> _Tab:
    """(d * tab) on the grid; residence atoms shift, other laws integrate.
    An atom is keyed by the sorted tuple of its points and sits at their fsum."""
    if isinstance(d, (Dirac, Shifted)):
        shift = d.point if isinstance(d, Dirac) else d.shift
        inner = tab if isinstance(d, Dirac) else _reference_conv_tab(d.base, tab, xs)
        smooth = np.interp(xs - shift, xs, inner.smooth, left=0.0)
        moved = {tuple(sorted((*pts, shift))): m for pts, m in inner.atoms.items()}
        return _Tab(smooth, {pts: m for pts, m in moved.items() if math.fsum(pts) <= xs[-1]})
    jumps = _reference_atoms(d, float(xs[-1]))
    smooth = np.clip(_reference_product_integral(d, tab.smooth, xs, jumps), 0.0, 1.0)
    atoms: Dict[tuple, float] = {}
    for pts, m in tab.atoms.items():
        smooth = smooth + m * _reference_continuous_cdf(d, xs - math.fsum(pts), jumps)
        for x, mx in jumps:
            key = tuple(sorted((*pts, x)))
            if math.fsum(key) <= xs[-1]:
                atoms[key] = atoms.get(key, 0.0) + m * mx
    return _Tab(smooth, atoms)


def reference_prob_cylinder_inductive(m: Smdp, sch: Scheduler, s: str, c: TimeBoundedCylinder,
                                      grid_points: Optional[int] = None) -> float:
    """`prob_cylinder_inductive` with one direct `np.convolve` per state and
    level, each building the residence law's product-integration weights
    afresh, and atoms found by `_reference_atoms`.

    The grid has at least 1024 points and grows with the sharpest rate.
    """
    word = c.word
    t = c.bound
    m.state_index(s)
    for a in word:
        m.label_index(a)
    if t <= 0.0:
        return prob_rect_cylinder(m, sch, s, RectCylinder(
            [RectStep({a}, (Interval.upto(t),), m.states) for a in word]))

    if grid_points is None:
        rate = max([1.0] + [_scales(m.residence_of(x))[1] for x in m.states])
        grid_points = int(min(max(1024, math.ceil(250.0 * rate * t)), 200_000))
    xs = np.linspace(0.0, t, grid_points + 1)

    # states needed per level
    needed = [{s}]
    for a in word[:-1]:
        nxt = set()
        for st in needed[-1]:
            if sch.weight(st, a) > 0.0:
                nxt.update(s2 for s2, p in m.succ(st, a).items() if p > 0.0)
        needed.append(nxt)

    n = len(word)
    tables: Dict[str, _Tab] = {}
    for st in sorted(needed[n - 1]):
        mass = sch.weight(st, word[-1]) * sum(m.succ(st, word[-1]).values())
        d = m.residence_of(st)
        jumps = _reference_atoms(d, t)
        tables[st] = _Tab(mass * _reference_continuous_cdf(d, xs, jumps), {(x,): mass * j for x, j in jumps})
    for k in range(n - 2, -1, -1):
        a = word[k]
        nxt_tables: Dict[str, _Tab] = {}
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
            nxt_tables[st] = _reference_conv_tab(m.residence_of(st), _Tab(smooth, atoms), xs)
        tables = nxt_tables
    return float(min(1.0, max(0.0, tables[s].value_at_end(t))))


# --- reference monotonicity checkers ------------------------------------------
# The checkers as they were before the pair walk: one first-occurrence set per
# loop and an early exit after each violation.  Whole reports must match.


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


def reference_check_strong_monotonicity(u: Smdp, v: Smdp, w: Smdp, w2: Smdp, op: str,
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


def reference_check_monotonicity_bounded(u: Smdp, v: Smdp, w: Smdp, w2: Smdp, op: str, n: int,
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
