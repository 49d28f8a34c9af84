"""Statistical oracle: samples timed paths and estimates cylinder probabilities.

All randomness flows from numpy PCG64 generators seeded from the caller's
seed (in `estimate_cylinder`, through its first SeedSequence child), so runs
are reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .distributions import Dirac, Distribution, Exponential, MinMaxCdf, Uniform, cdf_vec
from .model import Scheduler, Smdp

__all__ = ["TimedPath", "Deadlock", "sample_path", "estimate_cylinder", "wilson_bounds"]

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


@dataclass(frozen=True)
class TimedPath:
    steps: tuple  # (label, sojourn, state) triples

    def labels(self) -> str:
        return "".join(a for a, _, _ in self.steps)

    def total_time(self) -> float:
        return sum(t for _, t, _ in self.steps)


@dataclass(frozen=True)
class Deadlock:
    prefix: TimedPath


def _quantile(d: Distribution, qs) -> np.ndarray:
    """Inverse CDF of d at each of qs: closed forms for Dirac, exponential and
    uniform laws.  A min/max law inverts through its parts: {x : max(F_a,
    F_b)(x) >= q} is the union of the parts' up-rays, so its infimum is
    min(Q_a, Q_b), and a min of CDFs has max(Q_a, Q_b).  Any other law
    doubles hi from 1.0 while F(hi) < q (up to 1e12), then bisects all
    points at once, each until hi - lo <= 1e-9.
    """
    qs = np.asarray(qs, dtype=float)
    if isinstance(d, Dirac):
        return np.full_like(qs, d.point)
    if isinstance(d, Exponential):
        return -np.log1p(-qs) / d.rate
    if isinstance(d, Uniform):
        return d.lo + qs * (d.hi - d.lo)
    if isinstance(d, MinMaxCdf):
        a, b = (_quantile(p, qs) for p in d.parts)
        return np.minimum(a, b) if d.kind == "max" else np.maximum(a, b)
    hi, lo, grow = np.ones_like(qs), np.zeros_like(qs), np.ones_like(qs, dtype=bool)
    while grow.any():
        grow[grow] = (cdf_vec(d, hi[grow]) < qs[grow]) & (hi[grow] < 1e12)
        hi[grow] *= 2.0
    while (open_ := np.flatnonzero(hi - lo > 1e-9)).size:
        mid = 0.5 * (lo[open_] + hi[open_])
        below = cdf_vec(d, mid) < qs[open_]
        lo[open_[below]] = mid[below]
        hi[open_[~below]] = mid[~below]
    return hi


def _pick(rng, items_weights, total_is_one=False):
    """Draws from [(item, weight)]; returns None on the residual mass.

    With total_is_one the weights form a full distribution and float
    shortfall must not leak into the residual: the draw clamps to the last
    positive item.
    """
    u = rng.random()
    acc = 0.0
    last = None
    for item, wgt in items_weights:
        if wgt > 0.0:
            last = item
        acc += wgt
        if u < acc:
            return item
    return last if total_is_one else None


def sample_path(m: Smdp, sch: Scheduler, length: int, seed: int) -> Union[TimedPath, Deadlock]:
    """One operational run of `length` steps, fully determined by seed.

    Per step: a label is drawn from the scheduler, a successor from the
    transition row (the residual row mass is deadlock), and a sojourn time by
    inverse CDF from the residence distribution.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    state = m.initial
    steps = []
    for _ in range(length):
        label = _pick(rng, [(a, sch.weight(state, a)) for a in m.labels], total_is_one=True)
        if label is None:
            return Deadlock(TimedPath(tuple(steps)))
        row = m.succ(state, label)
        target = _pick(rng, [(s2, row.get(s2, 0.0)) for s2 in m.states])
        if target is None:
            return Deadlock(TimedPath(tuple(steps)))
        sojourn = float(_quantile(m.residence_of(state), [rng.random()])[0])
        steps.append((label, sojourn, target))
        state = target
    return TimedPath(tuple(steps))


def _estimate_chunk(m: Smdp, sch: Scheduler, word, t: float, size: int, rng) -> int:
    cur = np.full(size, m.state_index(m.initial), dtype=np.int64)
    alive = np.ones(size, dtype=bool)
    total = np.zeros(size)
    label_cum = {}  # state idx -> cumulative scheduler weights over model label order
    for si, s in enumerate(m.states):
        label_cum[si] = np.cumsum([sch.weight(s, a) for a in m.labels])
    for a in word:
        ai = m.label_index(a)
        before = cur.copy()  # states at the start of this word position
        for si, s in enumerate(m.states):
            mask = alive & (before == si)
            k = int(np.count_nonzero(mask))
            if k == 0:
                continue
            cum = label_cum[si]
            lo = cum[ai - 1] if ai > 0 else 0.0
            u = rng.random(k)
            matched = (u >= lo) & (u < cum[ai])
            row = m.succ(s, a)
            succ_states = [s2 for s2 in m.states if row.get(s2, 0.0) > 0.0]
            succ_cum = np.cumsum([row[s2] for s2 in succ_states])
            u2 = rng.random(k)
            if succ_states:
                idx = np.searchsorted(succ_cum, u2, side="right")
                dead = idx >= len(succ_states)
                idx = np.minimum(idx, len(succ_states) - 1)
                targets = np.array([m.state_index(s2) for s2 in succ_states])[idx]
            else:
                dead = np.ones(k, dtype=bool)
                targets = np.zeros(k, dtype=np.int64)
            sojourn = _quantile(m.residence_of(s), rng.random(k))
            ok = matched & ~dead
            sel = np.flatnonzero(mask)
            alive[sel[~ok]] = False
            keep = sel[ok]
            cur[keep] = targets[ok]
            total[keep] += sojourn[ok]
    return int(np.count_nonzero(alive & (total <= t)))


def estimate_cylinder(m: Smdp, sch: Scheduler, word, t: float, samples: int,
                      seed: int) -> Tuple[float, float]:
    """Fraction of sampled prefixes matching `word` within total time t.

    Returns (estimate, half-width): the half-width is the far side of the
    99% Wilson score interval, so it stays about z^2/n wide at an estimate
    of 0 or 1, where the normal half-width is 0.
    All samples come from one generator, on the first child spawned from the seed.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    if not word:
        raise ValueError("word must be nonempty")
    if not (t >= 0.0):
        raise ValueError(f"bound must be >= 0, got {t}")
    word = tuple(word)
    for a in word:
        m.label_index(a)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(1)[0]))
    p = _estimate_chunk(m, sch, word, t, samples, rng) / samples
    lo, hi = wilson_bounds(p, samples)
    return p, max(p - lo, hi - p)


def wilson_bounds(estimate: float, samples: int) -> Tuple[float, float]:
    """99% Wilson score interval (Wilson, JASA 1927) around a sampled fraction;
    unlike the normal half-width, it stays about z^2/n wide at an estimate of 0 or 1."""
    z2 = _Z99 * _Z99 / samples
    center = (estimate + z2 / 2.0) / (1.0 + z2)
    half = _Z99 * math.sqrt(estimate * (1.0 - estimate) / samples + z2 / (4.0 * samples)) / (1.0 + z2)
    return max(0.0, center - half), min(1.0, center + half)
