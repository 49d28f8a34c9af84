"""Shared helpers for the test suite: random models and independent oracles."""

import itertools
import math

from smdpcheck.distributions import (
    Dirac,
    DominanceVerdict,
    Exponential,
    GridSpec,
    Uniform,
    _analytic_dominance_rule,
    _bisect_crossing,
    cdf_eval,
    compose_residence,
    convolve,
    dominates,
)
from smdpcheck.model import Smdp, has_deterministic_kernel
from smdpcheck.relations import _quantize, _weight_function_exists


def random_two_label_model(rng, n_max=3, det=False, live_initial=False):
    """Small two-label SMDP with masses on a coarse grid (away from borderline)."""
    n = rng.randint(1, n_max)
    names = [f"s{i}" for i in range(n)]
    residence = {s: Exponential(round(rng.uniform(0.2, 3.0), 2)) for s in names}
    grid = [0.2, 0.4, 0.5, 0.6, 0.8, 1.0]
    trans = {}
    for s in names:
        for a in ("a", "b"):
            if rng.random() < 0.75:
                if det:
                    trans[(s, a)] = {rng.choice(names): rng.choice(grid)}
                else:
                    targets = rng.sample(names, k=min(n, rng.randint(1, 2)))
                    mass = rng.choice(grid)
                    trans[(s, a)] = {t: round(mass / len(targets), 6) for t in targets}
    if live_initial and (names[0], "a") not in trans:
        trans[(names[0], "a")] = {names[-1]: 1.0}
    return Smdp(["a", "b"], names, names[0], residence, trans)


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


def _scalar_grid_dominates(d1, d2, grid):
    ts = [float(t) for t in grid.times()]
    diffs = [cdf_eval(d1, t) - cdf_eval(d2, t) for t in ts]
    first_neg = next((i for i, d in enumerate(diffs) if d < 0.0), None)
    if first_neg is None:
        return DominanceVerdict(
            "HoldsOnGrid", method=f"grid scan, {len(ts)} points, t_max={grid.t_max:g}")
    crossing = _bisect_crossing(d1, d2, ts[first_neg - 1] if first_neg else 0.0, ts[first_neg])
    worst = min(range(len(ts)), key=lambda i: diffs[i])
    return DominanceVerdict(
        "FailsAtWitness", witness_t=ts[worst],
        method=f"grid scan; CDFs cross near t={crossing:.9g}")


def reference_dominates(d1, d2):
    """`dominates` on its default grid, scanned point by point with scalar cdf_eval."""
    grid = GridSpec.for_dominance(d1, d2)
    rule = _analytic_dominance_rule(d1, d2)
    if rule is None:
        return _scalar_grid_dominates(d1, d2, grid)
    holds, name = rule
    if holds:
        return DominanceVerdict("HoldsAnalytic", method=name)
    for g in (grid, GridSpec.for_dominance(d1, d2, points=8192)):
        verdict = _scalar_grid_dominates(d1, d2, g)
        if verdict.outcome == "FailsAtWitness":
            return DominanceVerdict("FailsAtWitness", witness_t=verdict.witness_t, method=name)
    return DominanceVerdict("FailsAtWitness", witness_t=None, method=name)


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
                    if _quantize(p) > 0:
                        b = block[(tag, s2)]
                        masses[b] = masses.get(b, 0) + _quantize(p)
                sig.append(tuple(sorted(masses.items())))
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
