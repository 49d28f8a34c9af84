"""Symbolic residence-time distributions on the nonnegative reals.

Every distribution is an immutable value with an evaluable CDF.  Convolution
is kept symbolic where a closed family exists (sums of exponentials become
phase-type, point masses become shifts) and falls back to numeric
Stieltjes quadrature otherwise.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .errors import UnsupportedComposition

__all__ = [
    "Dirac",
    "Exponential",
    "Uniform",
    "PhaseType",
    "Shifted",
    "NumericConvolution",
    "MinMaxCdf",
    "Distribution",
    "CompositionOperator",
    "DominanceVerdict",
    "GridSpec",
    "cdf_eval",
    "cdf_vec",
    "pdf_vec",
    "atom_mass",
    "measure_interval",
    "convolve",
    "convolve_power",
    "compose_residence",
    "dominates",
    "phase_type",
    "render",
    "sort_key",
]

_PHASE_EPS = 1e-12  # absolute truncation error of the uniformization series


@dataclass(frozen=True)
class Dirac:
    """Point mass at a nonnegative time."""

    point: float

    def __post_init__(self):
        if not (self.point >= 0.0 and math.isfinite(self.point)):
            raise ValueError(f"Dirac point must be finite and >= 0, got {self.point}")


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self):
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ValueError(f"Exponential rate must be finite and > 0, got {self.rate}")


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo >= 0.0 and math.isfinite(self.hi) and self.hi > self.lo):
            raise ValueError(f"Uniform requires 0 <= lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class PhaseType:
    """Sum of independent exponentials; the rate multiset is kept sorted.

    This is the canonical form of finite convolutions of exponentials.
    Repeated rates are allowed (Erlang is the all-equal case).
    """

    rates: tuple

    def __post_init__(self):
        rates = tuple(sorted(float(r) for r in self.rates))
        if not rates:
            raise ValueError("PhaseType needs at least one rate")
        if any(not (r > 0.0 and math.isfinite(r)) for r in rates):
            raise ValueError(f"PhaseType rates must be finite and > 0, got {rates}")
        object.__setattr__(self, "rates", rates)


@dataclass(frozen=True)
class Shifted:
    """A distribution delayed by a fixed nonnegative time."""

    base: "Distribution"
    shift: float

    def __post_init__(self):
        if not (self.shift >= 0.0 and math.isfinite(self.shift)):
            raise ValueError(f"shift must be finite and >= 0, got {self.shift}")


@dataclass(frozen=True)
class NumericConvolution:
    """Convolution with no symbolic closed form; evaluated by quadrature."""

    factors: tuple

    def __post_init__(self):
        if len(self.factors) < 2:
            raise ValueError("NumericConvolution needs at least two factors")


@dataclass(frozen=True)
class MinMaxCdf:
    """Pointwise min or max of two CDFs (residence-time composition result)."""

    kind: str  # "min" | "max"
    parts: tuple

    def __post_init__(self):
        if self.kind not in ("min", "max"):
            raise ValueError(f"kind must be 'min' or 'max', got {self.kind!r}")
        if len(self.parts) != 2:
            raise ValueError("MinMaxCdf takes exactly two parts")


Distribution = Union[Dirac, Exponential, Uniform, PhaseType, Shifted, NumericConvolution, MinMaxCdf]


def phase_type(rates) -> Distribution:
    """Canonical sum-of-exponentials: a single rate collapses to Exponential."""
    rates = tuple(rates)
    if len(rates) == 1:
        return Exponential(rates[0])
    return PhaseType(rates)


# ---------------------------------------------------------------------------
# ordering / rendering


def sort_key(d: Distribution):
    """Total order on distributions; used to canonicalize commutative operands."""
    if isinstance(d, Dirac):
        return (0, d.point)
    if isinstance(d, Exponential):
        return (1, d.rate)
    if isinstance(d, Uniform):
        return (2, d.lo, d.hi)
    if isinstance(d, PhaseType):
        return (3, d.rates)
    if isinstance(d, Shifted):
        return (4, sort_key(d.base), d.shift)
    if isinstance(d, MinMaxCdf):
        return (5, d.kind, tuple(sort_key(p) for p in d.parts))
    if isinstance(d, NumericConvolution):
        return (6, tuple(sort_key(f) for f in d.factors))
    raise TypeError(f"not a Distribution: {d!r}")


def render(d: Distribution) -> str:
    if isinstance(d, Dirac):
        return f"dirac({d.point:g})"
    if isinstance(d, Exponential):
        return f"exp({d.rate:g})"
    if isinstance(d, Uniform):
        return f"uniform({d.lo:g},{d.hi:g})"
    if isinstance(d, PhaseType):
        return "phase(" + ",".join(f"{r:g}" for r in d.rates) + ")"
    if isinstance(d, Shifted):
        return f"shift({render(d.base)},{d.shift:g})"
    if isinstance(d, MinMaxCdf):
        return f"{d.kind}({render(d.parts[0])},{render(d.parts[1])})"
    if isinstance(d, NumericConvolution):
        return "conv(" + ",".join(render(f) for f in d.factors) + ")"
    raise TypeError(f"not a Distribution: {d!r}")


# ---------------------------------------------------------------------------
# phase-type CDF and density by truncated uniformization

# The series orders the stages by decreasing rate, s_1 >= ... >= s_n.  Its
# generator is the sequential bidiagonal chain over them; uniformizing at the
# largest rate lam = s_1 gives a substochastic jump matrix M with
# M[i,i] = 1 - s_i/lam and M[i,i+1] = s_i/lam.  The survival function is
# sum_k Pois(k; lam*t) * |e_1 M^k|_1 and the density is the same series over
# the absorbing flux, the last entry of e_1 M^k times s_n.  Each time point
# stops at the first k whose Poisson mass reaches 1 - _PHASE_EPS; all terms
# are nonnegative, so the truncation error bounds the absolute error.  The
# stop depends on lam*t alone and each point is summed on its own, left to
# right, so a point's value does not depend on the other points of the call
# nor on what the caches below hold: cdf_eval is a one-point call of the
# kernel that cdf_vec and pdf_vec use.

# Above this value of lam*t the term-by-term series is too long; the matrix
# form below covers the same uniformization at a reduced step plus squaring.
_Q_DIRECT_LIMIT = 20000.0


class _Lru:
    """Values by key that drop the least recently used once more than
    `budget` bytes are held."""

    def __init__(self, budget: int):
        self.budget = budget
        self.held = 0
        self.items: "OrderedDict[object, tuple]" = OrderedDict()  # key -> (bytes, value)

    def get(self, key):
        item = self.items.get(key)
        if item is None:
            return None
        self.items.move_to_end(key)
        return item[1]

    def put(self, key, value, nbytes: int):
        old = self.items.pop(key, None)
        self.held += nbytes - (old[0] if old else 0)
        self.items[key] = nbytes, value
        while self.held > self.budget:
            self.held -= self.items.popitem(last=False)[1][0]
        return value


class _PhaseRows(_Lru):
    """The rows of a stage tuple (decreasing rates) for k = 0, 1, ...: the
    survival row |e_1 M^k|_1 and the last column, the last entry of e_1 M^k.

    The law less one copy of its slowest rate, its prefix, has the same
    largest rate, so the same M less its last row and column: a law's
    columns are its prefix's and one more, worked out from the prefix's last
    column, and its survival row is the prefix's plus that column (the
    columns summed left to right).  Built from the longest prefix held with
    enough rows, the prefixes in between are held too; a single stage's
    column is e_1.  Held per stage tuple as two read-only float arrays, 16
    bytes a row.
    """

    def __call__(self, stages, size: int):
        held = self.get(stages)
        if held is not None:
            if len(held[0]) >= size:
                return held
            size = max(size, 2 * len(held[0]))
        n = len(stages) - 1
        while n > 1:
            prefix = self.get(stages[:n])
            if prefix is not None and len(prefix[0]) >= size:
                surv, col = prefix
                break
            n -= 1
        else:
            n, surv = 1, np.zeros(size)
            surv[0] = 1.0
            col = surv
        lam = stages[0]
        for m in range(n, len(stages)):
            stay, move = 1.0 - stages[m] / lam, stages[m - 1] / lam
            column, x = [], 0.0
            for p in col[:size].tolist():
                column.append(x)
                x = x * stay + p * move
            col = np.array(column)
            surv = surv[:size] + col
            surv.flags.writeable = col.flags.writeable = False
            self.put(stages[:m + 1], (surv, col), 16 * size)
        return surv, col


_phase_rows = _PhaseRows(budget=1 << 22)  # 4 MiB
# Keyed by (lam*t, eps).  The first 30 deep-paths instances of seed 7 ask
# for 2,209 distinct lam*t in 21,634 calls, mostly short series: a 256 KiB
# budget misses about as often as 1 MiB there, and a 30 s deep-paths run
# peaks 1.9 MB lower.  The weights of one point near lam*t = 20000 take 170 KB.
_poisson_cache = _Lru(budget=1 << 18)  # 256 KiB
_lgamma = []  # lgamma(k + 1) for k = 0, 1, ...
_SERIES_BLOCK = 1 << 16  # (point, term) products summed per block


def _poisson_cap(q):
    """The last k _poisson_weights(q, eps) may reach: a hard cap, since float
    summation can plateau just below the target coverage."""
    return int(q + 12.0 * math.sqrt(q + 1.0) + 60.0)


def _poisson_weights(q, eps):
    """Poisson(q) probabilities for k = 0, 1, ... until they cover 1 - eps,
    or until they underflow to 0 past the mode, as a read-only array that
    every caller shares."""
    weights = _poisson_cache.get((q, eps))
    if weights is not None:
        return weights
    cap = _poisson_cap(q)
    while len(_lgamma) <= cap:
        _lgamma.append(math.lgamma(len(_lgamma) + 1))
    logq = math.log(q)
    weights = []
    covered = 0.0
    for k in range(cap + 1):
        logw = -q + k * logq - _lgamma[k]
        w = math.exp(logw) if logw > -745.0 else 0.0
        weights.append(w)
        covered += w
        if covered >= 1.0 - eps or (k > q and w == 0.0):
            break
    weights = np.array(weights)
    weights.flags.writeable = False
    return _poisson_cache.put((q, eps), weights, weights.nbytes)


def _phase_expm_row(rates, t):
    """First row of e^{At} for the bidiagonal chain generator.

    Uniformized series at time t/2^k (so lam*t/2^k stays small), then k
    matrix squarings.  All matrices are nonnegative and substochastic, so
    the powering introduces no cancellation.
    """
    n = len(rates)
    lam = max(rates)
    q = lam * t
    k = max(0, math.ceil(math.log2(q / 4096.0)))
    qs = q / (1 << k)
    M = np.zeros((n, n))
    for i, r in enumerate(rates):
        M[i, i] = 1.0 - r / lam
        if i + 1 < n:
            M[i, i + 1] = r / lam
    S = np.zeros((n, n))
    P = np.eye(n)
    for w in _poisson_weights(qs, 1e-15):
        S += w * P
        P = P @ M
    for _ in range(k):
        S = S @ S
    return S[0]


def _phase_series(rates, ts):
    """(F(t), f(t)) of PhaseType(rates) at every time in ts, as two arrays.

    Regimes per point: F = f = 0 for t <= 0 and where lam*t underflows to 0
    (a sum of two or more stages has density 0 at 0); F = 1, f = 0 once the
    tail is negligible; the matrix form above lam*t = _Q_DIRECT_LIMIT; else
    the uniformization series.
    """
    ts = np.asarray(ts, dtype=float)
    n, lam = len(rates), rates[-1]
    cdf, pdf = np.zeros(ts.size), np.zeros(ts.size)
    series = []  # (lam*t, point index)
    for i, t in enumerate(ts.ravel().tolist()):
        q = lam * t
        if not q > 0.0:
            continue
        # P(sum X_i > t) <= sum_i P(X_i > t/n) < 1e-15: F is 1.0 to double precision
        if sum(math.exp(-min(700.0, r * t / n)) for r in rates) < 1e-15:
            cdf[i] = 1.0
        elif q > _Q_DIRECT_LIMIT:
            row = _phase_expm_row(rates, t)
            cdf[i], pdf[i] = min(1.0, max(0.0, 1.0 - float(row.sum()))), max(0.0, float(row[-1]) * lam)
        else:
            series.append((q, i))
    # Blocks of points, smallest lam*t first, each point's weights padded
    # with zeros to the block's longest: np.add.accumulate sums each point's
    # terms left to right, and a padding term adds +0.0 to a sum >= 0.
    series.sort()
    stages = rates[::-1]
    rows = max(1, _SERIES_BLOCK // _poisson_cap(series[-1][0])) if series else 1
    for lo in range(0, len(series), rows):
        block = [(i, _poisson_weights(q, _PHASE_EPS)) for q, i in series[lo:lo + rows]]
        size = max(len(w) for _, w in block)
        surv, col = _phase_rows(stages, size)
        weights = np.zeros((len(block), size))
        for row, (_, w) in zip(weights, block):
            row[:len(w)] = w
        index = [i for i, _ in block]
        survival = np.add.accumulate(weights * surv[:size], axis=1)[:, -1]
        cdf[index] = np.minimum(1.0, np.maximum(0.0, 1.0 - survival))
        pdf[index] = np.maximum(0.0, np.add.accumulate(weights * (col[:size] * stages[-1]), axis=1)[:, -1])
    return cdf.reshape(ts.shape), pdf.reshape(ts.shape)


# ---------------------------------------------------------------------------
# CDF evaluation


# Few lookups repeat: replaying the first 1,200 anomaly-audit instances of
# seed 41 makes 270,805 lookups, of which 5,042 hit at 1 << 16 entries (the
# cache is full by then, and the replay peaks at 71.2 MB RSS) and 965 at
# 1 << 12 entries (peak 51.7 MB).
@lru_cache(maxsize=1 << 12)
def cdf_eval(d: Distribution, t: float) -> float:
    """F_d(t).  Total: t < 0 gives 0.0 and t = +inf gives 1.0."""
    if t != t:  # NaN
        raise ValueError("t must not be NaN")
    if t < 0.0:
        return 0.0
    if math.isinf(t):
        return 1.0
    if isinstance(d, Dirac):
        return 1.0 if t >= d.point else 0.0
    if isinstance(d, Exponential):
        return -math.expm1(-min(700.0, d.rate * t))
    if isinstance(d, Uniform):
        if t <= d.lo:
            return 0.0
        if t >= d.hi:
            return 1.0
        return (t - d.lo) / (d.hi - d.lo)
    if isinstance(d, PhaseType):
        return float(_phase_series(d.rates, (t,))[0][0])
    if isinstance(d, Shifted):
        return cdf_eval(d.base, t - d.shift)
    if isinstance(d, MinMaxCdf):
        a, b = cdf_eval(d.parts[0], t), cdf_eval(d.parts[1], t)
        return min(a, b) if d.kind == "min" else max(a, b)
    if isinstance(d, NumericConvolution):
        return float(_conv_cdf_vec(d.factors, (t,))[0])
    raise TypeError(f"not a Distribution: {d!r}")


def cdf_vec(d: Distribution, ts) -> np.ndarray:
    """Vectorized cdf_eval over an array of times."""
    ts = np.asarray(ts, dtype=float)
    if isinstance(d, Dirac):
        return (ts >= d.point).astype(float)
    if isinstance(d, Exponential):
        return -np.expm1(-np.minimum(700.0, d.rate * np.maximum(ts, 0.0)))
    if isinstance(d, Uniform):
        return np.clip((ts - d.lo) / (d.hi - d.lo), 0.0, 1.0)
    if isinstance(d, PhaseType):
        return _phase_series(d.rates, ts)[0]
    if isinstance(d, Shifted):
        return cdf_vec(d.base, ts - d.shift)
    if isinstance(d, MinMaxCdf):
        a = cdf_vec(d.parts[0], ts)
        b = cdf_vec(d.parts[1], ts)
        return np.minimum(a, b) if d.kind == "min" else np.maximum(a, b)
    if isinstance(d, NumericConvolution):
        return _conv_cdf_vec(d.factors, ts)
    raise TypeError(f"not a Distribution: {d!r}")


def pdf_vec(d: Distribution, ts) -> np.ndarray:
    """Vectorized density over an array of times (atomless variants only)."""
    return _pdf_vec(d, np.asarray(ts, dtype=float), atoms=False)


def _pdf_vec(d: Distribution, ts: np.ndarray, atoms: bool) -> np.ndarray:
    """Density of d's absolutely continuous part.  A Dirac part has none:
    with `atoms` it contributes 0, without it raises TypeError."""
    if isinstance(d, Exponential):
        return np.where(ts >= 0.0, d.rate * np.exp(-np.minimum(700.0, d.rate * np.maximum(ts, 0.0))), 0.0)
    if isinstance(d, Uniform):
        return np.where((ts >= d.lo) & (ts <= d.hi), 1.0 / (d.hi - d.lo), 0.0)
    if isinstance(d, PhaseType):
        return _phase_series(d.rates, ts)[1]
    if isinstance(d, Shifted):
        return _pdf_vec(d.base, ts - d.shift, atoms)
    if isinstance(d, MinMaxCdf):
        a, b = d.parts
        fa, fb = cdf_vec(a, ts), cdf_vec(b, ts)
        pick_a = fa <= fb if d.kind == "min" else fa >= fb
        return np.where(pick_a, _pdf_vec(a, ts, atoms), _pdf_vec(b, ts, atoms))
    if isinstance(d, Dirac) and atoms:
        return np.zeros(ts.shape)
    raise TypeError(f"no density for {d!r}")


# ---------------------------------------------------------------------------
# numeric convolution: one Gauss-Legendre Stieltjes kernel

# F(t) = int_0^t f_head(x) F_rest(t - x) dx + sum_j m_j F_rest(t - x_j): the
# head factor's absolutely continuous density against the CDF of the other
# factors, plus the head's atoms m_j at x_j <= t.  [0, t] is cut wherever
# either side is not smooth (the head's kinks, and t - k for each kink k of
# the rest) and, for stiff rates, at span * 2^k from both ends, with span =
# _STIFF_SPAN / (largest rate): no piece then spans more than _STIFF_SPAN
# rate-lengths of a part of the integrand that has not already decayed.
# Each piece takes _GL_POINTS Gauss-Legendre nodes, exact for polynomials of
# degree 47.  The terms of each time are summed with math.fsum, which rounds
# once and ignores order, so the zero-width pieces that pad a batch to one
# shape change no bits: a time's value does not depend on the other times
# of the call, and cdf_eval is a one-point call of the kernel cdf_vec uses.

_GL_POINTS = 24
_STIFF_SPAN = 40.0
_KERNEL_BLOCK = 1 << 17  # (time, node) pairs evaluated per block
_DENSITY_PREFERENCE = {Uniform: 0, Exponential: 1, PhaseType: 2, Shifted: 3, MinMaxCdf: 4, NumericConvolution: 5}


@lru_cache(maxsize=2)
def _gauss_legendre(points: int = _GL_POINTS):
    """Nodes and weights on [-1, 1], made on first use: importing
    numpy.polynomial takes milliseconds."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(points)


def _bisect_sign_change(a, b, lo, hi):
    """A point where F_a - F_b changes sign in [lo, hi], bisected down to
    adjacent floats; the sign at lo must be nonzero."""
    above = cdf_eval(a, lo) > cdf_eval(b, lo)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        diff = cdf_eval(a, mid) - cdf_eval(b, mid)
        if diff == 0.0:
            return mid
        if (diff > 0.0) == above:
            lo = mid
        else:
            hi = mid
    return hi


def _crossings(d: MinMaxCdf) -> tuple:
    """Where the two parts' CDFs cross: each sign change of F_a - F_b on the
    dominance grid, bisected.  Not cached itself: _kinks, its caller, is."""
    a, b = d.parts
    ts, diffs = _grid_diffs(a, b)
    signed = np.flatnonzero(diffs)
    return tuple(_bisect_sign_change(a, b, float(ts[i]), float(ts[j]))
                 for i, j in zip(signed[:-1], signed[1:]) if (diffs[i] > 0.0) != (diffs[j] > 0.0))


@lru_cache(maxsize=1 << 12)
def _kinks(d: Distribution) -> tuple:
    """Sorted points where F_d or its density is not smooth: uniform
    endpoints, atoms, shifts, min/max crossings, and the sums of the factors'
    kinks (0 included) for a convolution."""
    if isinstance(d, Dirac):
        return (d.point,)
    if isinstance(d, Uniform):
        return (d.lo, d.hi)
    if isinstance(d, Shifted):
        return tuple(sorted({d.shift, *(d.shift + k for k in _kinks(d.base))}))
    if isinstance(d, MinMaxCdf):
        return tuple(sorted({*_kinks(d.parts[0]), *_kinks(d.parts[1]), *_crossings(d)}))
    if isinstance(d, NumericConvolution):
        sums = {0.0}
        for f in d.factors:
            sums = {s + k for s in sums for k in (0.0, *_kinks(f))}
        return tuple(sorted(sums - {0.0}))
    return ()  # exponential and phase-type laws are smooth on (0, inf)


@lru_cache(maxsize=1 << 12)
def _jumps(d: Distribution) -> tuple:
    """(x, F(x) - F(x-)) for each atom x of d, at the float where cdf_eval
    steps.  A convolution's atoms are the sums of its factors' atoms, with
    the product of their masses: the kernel's head atom x moves the rest's
    atom y to where F_rest(t - x) steps, _shifted_point(y, x)."""
    if isinstance(d, Dirac):
        return ((d.point, 1.0),)
    if isinstance(d, NumericConvolution):
        head, rest = _head_and_rest(d.factors)
        sums = {}
        for x, m in _jumps(head):
            for y, n in _jumps(rest):
                at = _shifted_point(y, x)
                sums[at] = sums.get(at, 0.0) + m * n
        return tuple(sorted(sums.items()))
    if isinstance(d, Shifted):
        return tuple((_shifted_point(x, d.shift), m) for x, m in _jumps(d.base))
    if isinstance(d, MinMaxCdf):
        (a, b), pick = d.parts, (min if d.kind == "min" else max)
        ja, jb = dict(_jumps(a)), dict(_jumps(b))
        out = []
        for x in sorted({*ja, *jb}):
            fa, fb = cdf_eval(a, x), cdf_eval(b, x)
            m = pick(fa, fb) - pick(fa - ja.get(x, 0.0), fb - jb.get(x, 0.0))
            if m > 0.0:
                out.append((x, m))
        return tuple(out)
    return ()


def _shifted_point(x: float, shift: float) -> float:
    """The least float y with y - shift >= x: where cdf_eval of a law shifted
    by `shift` steps at its base's atom x.  x + shift can round to either
    side of it (0.3 + 2.681 rounds below)."""
    y = x + shift
    while y - shift < x:
        y = math.nextafter(y, math.inf)
    while math.nextafter(y, -math.inf) - shift >= x:
        y = math.nextafter(y, -math.inf)
    return y


def _head_and_rest(factors) -> tuple:
    """The factor whose density the kernel integrates, and the law of the others."""
    head, *others = sorted(factors, key=lambda f: _DENSITY_PREFERENCE[type(f)])
    return head, others[0] if len(others) == 1 else NumericConvolution(tuple(others))


def _conv_cdf_vec(factors, ts) -> np.ndarray:
    """F of the convolution of `factors` at every time in ts (see above)."""
    ts = np.asarray(ts, dtype=float)
    if np.isnan(ts).any():
        raise ValueError("t must not be NaN")
    head, rest = _head_and_rest(factors)
    span = _STIFF_SPAN / max(_scales(f)[1] for f in factors)
    jumps = np.array(_jumps(head), dtype=float).reshape(-1, 2)
    out = np.where(ts > 0.0, 1.0, 0.0).ravel()  # t = inf gives 1, t < 0 gives 0
    todo = np.flatnonzero(np.isfinite(ts.ravel()) & (ts.ravel() >= 0.0))
    times = ts.ravel()[todo]
    fixed_cuts = len(_kinks(head)) + len(_kinks(rest)) + 2
    rows = max(1, _KERNEL_BLOCK // (_GL_POINTS * fixed_cuts))
    for lo in range(0, len(times), rows):
        out[todo[lo:lo + rows]] = _stieltjes_rows(head, rest, span, jumps, times[lo:lo + rows])
    return out.reshape(ts.shape)


def _stieltjes_rows(head, rest, span, jumps, ts):
    """The kernel's values at the finite times ts >= 0, as a list."""
    t = ts[:, None]
    n = len(ts)
    stiff = span * 2.0 ** np.arange(max(0, math.ceil(math.log2(max(ts.max(), span) / span))))
    ahead = np.concatenate(([0.0], _kinks(head), stiff))       # cut at x
    behind = np.concatenate((_kinks(rest), stiff, [0.0]))      # cut at t - x
    cuts = np.concatenate((np.broadcast_to(ahead, (n, len(ahead))), t - behind), axis=1)
    cuts = np.sort(np.minimum(np.maximum(cuts, 0.0), t), axis=1)
    nodes, weights = _gauss_legendre()
    half = 0.5 * np.diff(cuts, axis=1)[:, :, None]
    xs = (cuts[:, :-1, None] + half) + half * nodes
    dens = (_pdf_vec(head, xs, atoms=True) * (half * weights)).reshape(n, -1)
    cdfs = cdf_vec(rest, np.concatenate((t - xs.reshape(n, -1), t - jumps[:, 0]), axis=1))
    terms = cdfs * np.concatenate((dens, np.broadcast_to(jumps[:, 1], (n, len(jumps)))), axis=1)
    return [min(1.0, max(0.0, math.fsum(row))) for row in terms.tolist()]


def atom_mass(d: Distribution, x: float) -> float:
    """Point mass of d at x: its entry in _jumps(d), else 0.0."""
    return dict(_jumps(d)).get(x, 0.0)


def measure_interval(d: Distribution, lo: float, hi: float,
                     closed_lo: bool = True, closed_hi: bool = True) -> float:
    """Mass of d on an interval, with exact handling of Dirac atoms.

    A closed endpoint includes the atom sitting on it, an open one excludes it.
    """
    if hi < lo or (hi == lo and not (closed_lo and closed_hi)):
        return 0.0
    right = cdf_eval(d, hi)
    if not closed_hi:
        right -= atom_mass(d, hi)
    left = cdf_eval(d, lo)
    if closed_lo:
        left -= atom_mass(d, lo)
    return max(0.0, right - left)


# ---------------------------------------------------------------------------
# convolution


def _flatten_for_product(d: Distribution, shift_acc, rates_acc, other_acc):
    """Splits d into (total shift, exponential rates, opaque factors)."""
    if isinstance(d, Dirac):
        shift_acc[0] += d.point
    elif isinstance(d, Exponential):
        rates_acc.append(d.rate)
    elif isinstance(d, PhaseType):
        rates_acc.extend(d.rates)
    elif isinstance(d, Shifted):
        shift_acc[0] += d.shift
        _flatten_for_product(d.base, shift_acc, rates_acc, other_acc)
    elif isinstance(d, NumericConvolution):
        for f in d.factors:
            _flatten_for_product(f, shift_acc, rates_acc, other_acc)
    else:
        other_acc.append(d)


def _canonical_product(parts) -> Distribution:
    shift_acc = [0.0]
    rates = []
    others = []
    for p in parts:
        _flatten_for_product(p, shift_acc, rates, others)
    factors = list(others)
    if rates:
        factors.append(phase_type(sorted(rates)))
    factors.sort(key=sort_key)
    shift = shift_acc[0]
    if not factors:
        return Dirac(shift)
    if len(factors) == 1:
        core = factors[0]
    else:
        core = NumericConvolution(tuple(factors))
    return Shifted(core, shift) if shift > 0.0 else core


def convolve(d1: Distribution, d2: Distribution) -> Distribution:
    """Symbolic convolution in canonical form.

    Exponential/phase-type parts merge into one rate multiset, Dirac points
    accumulate into an outer shift, and anything else becomes a factor of a
    NumericConvolution evaluated by quadrature.
    """
    return _canonical_product([d1, d2])


def convolve_power(d: Distribution, n: int) -> Distribution:
    """n-fold convolution; n = 0 is the neutral element (point mass at 0)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Dirac(0.0)
    return _canonical_product([d] * n)


# ---------------------------------------------------------------------------
# residence-time composition


class CompositionOperator:
    MINIMUM = "min"
    MAXIMUM = "max"
    PRODUCT_RATE = "prodrate"

    ALL = (MINIMUM, MAXIMUM, PRODUCT_RATE)

    @staticmethod
    def parse(text: str) -> str:
        if text not in CompositionOperator.ALL:
            raise ValueError(f"unknown composition operator {text!r}; expected one of {CompositionOperator.ALL}")
        return text


def compose_residence(op: str, d1: Distribution, d2: Distribution) -> Distribution:
    """Combines two residence-time distributions under a composition operator.

    Exponential pairs stay exponential (min/max of rates, or their product);
    other pairs under min/max become a pointwise-min/max CDF wrapper.
    """
    if op == CompositionOperator.PRODUCT_RATE:
        if isinstance(d1, Exponential) and isinstance(d2, Exponential):
            return Exponential(d1.rate * d2.rate)
        raise UnsupportedComposition(
            f"product composition needs exponential operands, got {render(d1)} and {render(d2)}")
    if op not in (CompositionOperator.MINIMUM, CompositionOperator.MAXIMUM):
        raise ValueError(f"unknown composition operator {op!r}")
    a, b = sorted((d1, d2), key=sort_key)
    if a == b:
        return a
    if isinstance(a, Exponential) and isinstance(b, Exponential):
        # min of two exponential CDFs is the one with the smaller rate
        rate = min(a.rate, b.rate) if op == CompositionOperator.MINIMUM else max(a.rate, b.rate)
        return Exponential(rate)
    if isinstance(a, Dirac) and isinstance(b, Dirac):
        pt = max(a.point, b.point) if op == CompositionOperator.MINIMUM else min(a.point, b.point)
        return Dirac(pt)
    # A rule that fails one way does not hold the other way (nested uniforms).
    for upper, lower in ((a, b), (b, a)):
        if _analytic_dominance_rule(upper, lower):  # F_upper >= F_lower everywhere
            return lower if op == CompositionOperator.MINIMUM else upper
    return MinMaxCdf(op, (a, b))


# ---------------------------------------------------------------------------
# CDF dominance


@dataclass(frozen=True)
class DominanceVerdict:
    """Outcome of checking F_left(t) >= F_right(t) for all t >= 0."""

    outcome: str  # "HoldsAnalytic" | "HoldsOnGrid" | "FailsAtWitness"
    witness_t: Optional[float] = None

    @property
    def holds(self) -> bool:
        return self.outcome in ("HoldsAnalytic", "HoldsOnGrid")


def _scales(d: Distribution):
    """(smallest rate or None, largest rate, support) of d.

    The smallest exponential-like rate and the support (a time by which most
    of the mass has arrived) size the dominance grid; the largest rate, the
    curvature scale of the CDF, sizes the inductive engine's tabulation grid.
    """
    if isinstance(d, Dirac):
        return None, 0.0, d.point
    if isinstance(d, Exponential):
        return d.rate, d.rate, 1.0 / d.rate
    if isinstance(d, Uniform):
        return None, 2.0 / (d.hi - d.lo), d.hi
    if isinstance(d, PhaseType):
        return min(d.rates), max(d.rates), sum(1.0 / r for r in d.rates)
    if isinstance(d, Shifted):
        low, high, support = _scales(d.base)
        return low, high, d.shift + support
    if isinstance(d, (MinMaxCdf, NumericConvolution)):
        parts = [_scales(p) for p in (d.parts if isinstance(d, MinMaxCdf) else d.factors)]
        rates = [p[0] for p in parts if p[0] is not None]
        low = min(rates) if rates else None
        if isinstance(d, MinMaxCdf):
            return low, max(p[1] for p in parts), max(p[2] for p in parts)
        return low, 1.0, sum(p[2] for p in parts)
    return None, 1.0, 1.0


@dataclass(frozen=True)
class GridSpec:
    """Time grid for numeric CDF comparisons: a geometric/linear point mix."""

    t_max: float
    points: int = 512
    geometric: bool = True

    def __post_init__(self):
        if not (self.t_max > 0.0 and math.isfinite(self.t_max)):
            raise ValueError(f"t_max must be finite and > 0, got {self.t_max}")
        if self.points < 2:
            raise ValueError("need at least 2 grid points")

    def times(self) -> np.ndarray:
        if not self.geometric:
            return np.linspace(0.0, self.t_max, self.points + 1)[1:]
        lin = np.linspace(0.0, self.t_max, self.points // 2 + 1)
        geo = self.t_max * np.logspace(-8, 0, self.points - self.points // 2)
        return np.unique(np.concatenate(([0.0], lin, geo)))

    @staticmethod
    def for_dominance(d1: Distribution, d2: Distribution, points: int = 512) -> "GridSpec":
        (low1, _, supp1), (low2, _, supp2) = _scales(d1), _scales(d2)
        rates = [r for r in (low1, low2) if r is not None]
        t_rate = 20.0 / min(rates) if rates else 20.0
        t_supp = 2.0 * max(supp1, supp2)
        return GridSpec(t_max=max(t_rate, t_supp, 1e-6), points=points)


def _phase_pairwise_dominates(fast_rates, slow_rates) -> bool:
    # A sum of exponential stages is stochastically faster than another sum when
    # it has no more stages and, with both sides sorted by decreasing rate, each
    # fast stage's rate is at least that of the slow stage in the same place;
    # the slow side's unpaired stages, its slowest, only add time.
    if len(fast_rates) > len(slow_rates):
        return False
    fast = sorted(fast_rates, reverse=True)
    slow = sorted(slow_rates, reverse=True)
    return all(f >= s for f, s in zip(fast, slow))


def _analytic_dominance_rule(d1: Distribution, d2: Distribution) -> Optional[bool]:
    """Whether d1 dominates d2, when a family rule decides; else None."""
    if d1 == d2:
        return True
    if isinstance(d1, Exponential) and isinstance(d2, Exponential):
        return d1.rate >= d2.rate
    if isinstance(d1, Dirac) and isinstance(d2, Dirac):
        return d1.point <= d2.point
    if isinstance(d1, Uniform) and isinstance(d2, Uniform):
        return d1.lo <= d2.lo and d1.hi <= d2.hi
    if isinstance(d1, Dirac) and d1.point == 0.0:
        return True
    r1 = d1.rates if isinstance(d1, PhaseType) else (d1.rate,) if isinstance(d1, Exponential) else None
    r2 = d2.rates if isinstance(d2, PhaseType) else (d2.rate,) if isinstance(d2, Exponential) else None
    if r1 is not None and r2 is not None:
        if _phase_pairwise_dominates(r1, r2):
            return True
        if _phase_pairwise_dominates(r2, r1):
            return False
    return None


_GRID_POINTS = 512  # points of the dominance grid, whose CDF tables are cached


@lru_cache(maxsize=64)
def _grid_times(t_max: float, points: int) -> np.ndarray:
    """GridSpec(t_max, points).times(), read-only: every caller shares it."""
    ts = GridSpec(t_max, points).times()
    ts.flags.writeable = False
    return ts


@lru_cache(maxsize=256)
def _grid_cdf(d: Distribution, t_max: float) -> np.ndarray:
    """cdf_vec of d on the 512-point dominance grid up to t_max, read-only.

    Keyed by value, as cdf_eval is: laws that are == but hold different
    bits (Exponential(1) and Exponential(1.0), Dirac(0.0) and Dirac(-0.0))
    give the same cdf_vec bits.  A table takes about 4 KB.
    """
    table = cdf_vec(d, _grid_times(t_max, _GRID_POINTS))
    table.flags.writeable = False
    return table


def _grid_diffs(d1, d2, points: int = _GRID_POINTS):
    """(ts, F1 - F2 on ts) on the dominance grid of the pair.  Each law's CDF
    on the 512-point grid comes from its cached table; a finer grid (the
    8192-point rescan, 64 KB a table) is tabulated afresh."""
    t_max = GridSpec.for_dominance(d1, d2).t_max
    if points != _GRID_POINTS:
        ts = GridSpec(t_max, points).times()
        return ts, cdf_vec(d1, ts) - cdf_vec(d2, ts)
    return _grid_times(t_max, points), _grid_cdf(d1, t_max) - _grid_cdf(d2, t_max)


def dominates(d1: Distribution, d2: Distribution) -> DominanceVerdict:
    """Checks F_{d1}(t) >= F_{d2}(t) for all t >= 0.

    A family rule that holds decides.  Otherwise the difference is sampled
    on the 512-point dominance grid, and a failure a rule established with
    no sampled violation is sampled again on 8192 points.  The witness of a
    failure is the grid time of the deepest violation (its first occurrence),
    or None where no sampled time shows one.
    """
    holds = _analytic_dominance_rule(d1, d2)
    if holds:
        return DominanceVerdict("HoldsAnalytic")
    for points in (_GRID_POINTS, 8192) if holds is False else (_GRID_POINTS,):
        ts, diffs = _grid_diffs(d1, d2, points)
        if (diffs < 0.0).any():
            return DominanceVerdict("FailsAtWitness", witness_t=float(ts[diffs.argmin()]))
    return DominanceVerdict("HoldsOnGrid" if holds is None else "FailsAtWitness")


def _dominance_holds(d1: Distribution, d2: Distribution) -> bool:
    """dominates(d1, d2).holds, without the search for a failure witness."""
    holds = _analytic_dominance_rule(d1, d2)
    if holds is not None:
        return holds
    return not (_grid_diffs(d1, d2)[1] < 0.0).any()


def _cdf_equal(d1: Distribution, d2: Distribution) -> bool:
    """_dominance_holds(d1, d2) and _dominance_holds(d2, d1), with at most one
    grid scan.  The dominance grid of a pair does not depend on its order,
    and F2 - F1 is exactly -(F1 - F2) in floating point, so the one scan of
    F1 - F2 answers both ways: no value below 0, and no value above 0."""
    forth, back = _analytic_dominance_rule(d1, d2), _analytic_dominance_rule(d2, d1)
    if forth is False or back is False:
        return False
    if forth and back:
        return True
    diffs = _grid_diffs(d1, d2)[1]
    return not (forth is None and (diffs < 0.0).any()) and not (back is None and (diffs > 0.0).any())
