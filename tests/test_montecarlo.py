"""Sampling and statistical estimation."""

import math

import numpy as np
import pytest

from smdpcheck import corpus, montecarlo
from smdpcheck.cylinders import TimeBoundedCylinder, prob_cylinder_paths
from smdpcheck.distributions import (
    Dirac,
    Exponential,
    MinMaxCdf,
    NumericConvolution,
    PhaseType,
    Shifted,
    Uniform,
    cdf_eval,
    cdf_vec,
)
from smdpcheck.model import Smdp, dirac_scheduler, uniform_scheduler
from smdpcheck.montecarlo import (
    Deadlock,
    TimedPath,
    _quantile,
    estimate_cylinder,
    sample_path,
    wilson_bounds,
)
from tests_support import reference_inverse_cdf


def test_deterministic_chain_path():
    U = corpus.load("fig2_U.smdp")
    sch = dirac_scheduler(U, "a")
    for seed in (0, 1, 7):
        p = sample_path(U, sch, 3, seed)
        assert isinstance(p, TimedPath)
        assert p.labels() == "aaa"
        assert [s for _, _, s in p.steps] == ["u1", "u2", "u2"]


def test_dirac_residence_gives_exact_sojourns():
    m = Smdp(["a"], ["s0"], "s0", {"s0": Dirac(1.5)}, {("s0", "a"): {"s0": 1.0}})
    p = sample_path(m, dirac_scheduler(m, "a"), 4, seed=3)
    assert all(t == 1.5 for _, t, _ in p.steps)


def test_same_seed_same_path():
    m = corpus.load("branchy.smdp")
    sch = uniform_scheduler(m)
    a = sample_path(m, sch, 5, seed=123)
    b = sample_path(m, sch, 5, seed=123)
    assert a == b
    c = sample_path(m, sch, 5, seed=124)
    assert a != c  # overwhelmingly likely with continuous sojourns


def test_deadlock_is_a_value():
    dead = Smdp(["a"], ["s0"], "s0", {"s0": Exponential(1.0)}, {("s0", "a"): {"s0": 0.0}})
    out = sample_path(dead, dirac_scheduler(dead, "a"), 2, seed=0)
    assert isinstance(out, Deadlock)
    assert out.prefix.steps == ()


def test_generic_inverse_sampling():
    # phase-type residence exercises the numeric inversion path
    m = Smdp(["a"], ["s0"], "s0", {"s0": PhaseType((1.0, 2.0))}, {("s0", "a"): {"s0": 1.0}})
    p = sample_path(m, dirac_scheduler(m, "a"), 3, seed=11)
    assert all(t > 0.0 for _, t, _ in p.steps)


def test_estimate_validates_inputs():
    U = corpus.load("fig2_U.smdp")
    sch = dirac_scheduler(U, "a")
    with pytest.raises(ValueError):
        estimate_cylinder(U, sch, ("a",), 1.0, samples=10, seed=0)
    with pytest.raises(ValueError):
        estimate_cylinder(U, sch, (), 1.0, samples=2000, seed=0)
    for t in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="bound must be >= 0"):
            estimate_cylinder(U, sch, ("a",), t, samples=2000, seed=0)


def test_estimate_zero_bound_and_zero_trace():
    U = corpus.load("fig2_U.smdp")
    sch = dirac_scheduler(U, "a")
    est, _ = estimate_cylinder(U, sch, ("a", "a"), 0.0, samples=2000, seed=5)
    assert est == 0.0
    V3 = corpus.load("fig3_V.smdp")
    half = corpus.load_scheduler("fig3_V_half.sched")
    est, _ = estimate_cylinder(V3, half, ("b", "a"), 10.0, samples=2000, seed=5)
    assert est == 0.0  # sigma(v2)(a) = 0 kills the continuation
    branchy = corpus.load("branchy.smdp")
    est, _ = estimate_cylinder(branchy, uniform_scheduler(branchy), ("b", "a"), 10.0, samples=2000, seed=5)
    assert est == 0.0  # s2 has no row for a


def test_estimate_reproducible_across_calls():
    U = corpus.load("fig2_U.smdp")
    sch = dirac_scheduler(U, "a")
    a = estimate_cylinder(U, sch, ("a", "a"), 2.0, samples=20000, seed=42)
    b = estimate_cylinder(U, sch, ("a", "a"), 2.0, samples=20000, seed=42)
    assert a == b


def test_estimate_matches_analytic_on_fig2():
    U = corpus.load("fig2_U.smdp")
    sch = dirac_scheduler(U, "a")
    analytic = prob_cylinder_paths(U, sch, "u0", TimeBoundedCylinder(("a", "a"), 2.0))
    est, half = estimate_cylinder(U, sch, ("a", "a"), 2.0, samples=200000, seed=9)
    assert abs(est - analytic) <= half


def test_estimate_with_branching_scheduler():
    V3 = corpus.load("fig3_V.smdp")
    half = corpus.load_scheduler("fig3_V_half.sched")
    analytic = prob_cylinder_paths(V3, half, "v0", TimeBoundedCylinder(("a", "a"), 1.0))
    est, hw = estimate_cylinder(V3, half, ("a", "a"), 1.0, samples=200000, seed=17)
    assert abs(est - analytic) <= hw


_BISECTED_LAWS = (
    PhaseType((1.0, 2.0)),
    PhaseType((0.4, 1.5, 3.0)),
    Shifted(PhaseType((0.7, 2.2)), 0.25),
)

_MIN_MAX_LAWS = (
    MinMaxCdf("min", (Exponential(0.9), Uniform(0.4, 1.86))),
    MinMaxCdf("min", (Uniform(0.1, 0.6), Exponential(3.0))),
    MinMaxCdf("max", (Exponential(2.4), Uniform(0.31, 1.43))),
    MinMaxCdf("max", (Uniform(0.0, 2.0), Exponential(0.3))),
)


def test_quantile_matches_scalar_bisection():
    """Laws with no closed-form quantile: the batched bisection gives the bits
    of the one-sample reference bisection."""
    qs = np.random.default_rng(2026).random(40)
    qs[:3] = (0.0, 1e-12, 1.0 - 1e-12)
    for d in _BISECTED_LAWS:
        got = _quantile(d, qs)
        assert got.tolist() == [reference_inverse_cdf(d, float(q)) for q in qs], d
        assert [_quantile(d, [q])[0] for q in qs] == got.tolist(), d
    conv = NumericConvolution((MinMaxCdf("max", (Exponential(0.9), Uniform(0.4, 1.86))),
                               Uniform(0.1, 0.8)))
    got = _quantile(conv, qs[3:6])
    assert got.tolist() == [reference_inverse_cdf(conv, float(q)) for q in qs[3:6]]
    assert [_quantile(conv, [q])[0] for q in qs[3:6]] == got.tolist()


def test_quantile_closed_forms():
    qs = np.random.default_rng(7).random(200)
    for d in (Dirac(1.25), Uniform(0.3, 1.7)):
        assert _quantile(d, qs).tolist() == [reference_inverse_cdf(d, float(q)) for q in qs]
    # numpy's log1p and math.log1p may differ in the last bit
    d = Exponential(1.7)
    ref = np.array([reference_inverse_cdf(d, float(q)) for q in qs])
    assert np.all(np.abs(_quantile(d, qs) - ref) <= 2 * np.spacing(ref))
    for d in (Dirac(1.25), Uniform(0.3, 1.7), d):
        assert [_quantile(d, [q])[0] for q in qs] == _quantile(d, qs).tolist()


def test_min_max_quantile_is_the_exact_inverse():
    """A min/max law's quantile is the max/min of its parts' quantiles: exact
    where the parts have closed forms, so it differs from a bisection of the
    whole law by less than the bisection's 2^-30 bracket on interior q."""
    qs = np.random.default_rng(2026).random(40)
    qs[:3] = (0.0, 1e-12, 1.0 - 1e-12)
    inner = np.r_[1, 3:qs.size]  # all but q = 0 and q = 1 - 1e-12
    nested = MinMaxCdf("min", (MinMaxCdf("max", (Exponential(2.4), Uniform(0.31, 1.43))),
                               Uniform(0.1, 0.9)))
    for d in _MIN_MAX_LAWS + (MinMaxCdf("max", (PhaseType((1.0, 2.0)), Uniform(0.2, 1.5))), nested):
        got = _quantile(d, qs)
        a, b = (_quantile(p, qs) for p in d.parts)
        assert got.tolist() == (np.minimum(a, b) if d.kind == "max" else np.maximum(a, b)).tolist(), d
        assert [_quantile(d, [q])[0] for q in qs] == got.tolist(), d
        ref = np.array([reference_inverse_cdf(d, float(q)) for q in qs[inner]])
        assert np.all(np.abs(got[inner] - ref) <= 2.0 ** -30), d
        assert np.all(cdf_vec(d, got[inner] - 1e-9) < qs[inner]), d
    # at q = 0 the closed forms give the left end of the support
    for d in _MIN_MAX_LAWS:
        lo = max(p.lo if isinstance(p, Uniform) else 0.0 for p in d.parts)
        assert _quantile(d, [0.0])[0] == (lo if d.kind == "min" else 0.0), d
    assert _quantile(nested, [0.0])[0] == 0.1


def _min_max_model():
    residence = {"s0": MinMaxCdf("min", (Exponential(0.9), Uniform(0.4, 1.86))),
                 "s1": MinMaxCdf("max", (Uniform(0.31, 1.43), Exponential(2.4)))}
    return Smdp(["a"], ["s0", "s1"], "s0", residence,
                {("s0", "a"): {"s1": 0.7, "s0": 0.3}, ("s1", "a"): {"s0": 1.0}})


def test_min_max_estimate_makes_no_cdf_eval_lookups(monkeypatch):
    """Min/max laws of exponential and uniform parts are drawn by closed forms:
    no CDF is evaluated, while a phase-type part is still bisected."""
    calls = []

    def counted(d, ts):
        calls.append(d)
        return cdf_vec(d, ts)

    monkeypatch.setattr(montecarlo, "cdf_vec", counted)
    m = _min_max_model()
    before = cdf_eval.cache_info()
    result = estimate_cylinder(m, uniform_scheduler(m), ("a", "a"), 1.5, samples=2000, seed=5)
    after = cdf_eval.cache_info()
    assert after.hits + after.misses == before.hits + before.misses
    assert calls == []
    # the value that the per-sample scalar bisection with cdf_eval returned
    assert result == (0.3815, 0.028326436452552617)
    _quantile(MinMaxCdf("max", (PhaseType((1.0, 2.0)), Uniform(0.2, 1.5))), [0.5])
    assert calls and all(d == PhaseType((1.0, 2.0)) for d in calls)


def test_min_max_estimate_is_pinned():
    """10^4 samples on the two-state min/max model give the estimate that the
    bisection of the whole law gave."""
    m = _min_max_model()
    result = estimate_cylinder(m, uniform_scheduler(m), ("a", "a"), 1.5, samples=10_000, seed=5)
    assert result == (0.3758, 0.012553968495739087)


def test_wilson_bounds_stay_open_at_zero_and_one():
    U = corpus.load("fig2_U.smdp")
    est, half = estimate_cylinder(U, dirac_scheduler(U, "a"), ("a", "a"), 1e-4, samples=1000, seed=5)
    lo, hi = wilson_bounds(est, 1000)
    assert lo == 0.0 and 0.006 < hi < 0.007  # about z^2 / n
    assert est == 0.0 and half == hi  # the normal half-width would be 0
    lo, hi = wilson_bounds(1.0, 1000)
    assert hi == pytest.approx(1.0, abs=1e-15) and 0.993 < lo < 0.994
    # the Wilson bounds are the roots p of (p_hat - p)^2 = z^2 p (1 - p) / n
    z2 = 2.5758293035489004 ** 2
    for p_hat, n in ((0.5, 10 ** 6), (0.3, 1000), (0.004, 1000)):
        lo, hi = wilson_bounds(p_hat, n)
        assert lo < p_hat < hi
        for p in (lo, hi):
            assert (p_hat - p) ** 2 == pytest.approx(z2 * p * (1.0 - p) / n, rel=1e-9)


def test_estimate_half_width_covers_a_true_value_below_one():
    """1,000 samples of a word whose true probability is 0.999 that all hit:
    the estimate is 1, and its half-width, the far side of the Wilson
    interval, still reaches 0.999."""
    m = Smdp(["a"], ["s0"], "s0", {"s0": Exponential(1.0)}, {("s0", "a"): {"s0": 1.0}})
    t = math.log(1000.0)
    assert cdf_eval(Exponential(1.0), t) == pytest.approx(0.999, abs=1e-12)
    est, half = estimate_cylinder(m, uniform_scheduler(m), ("a",), t, samples=1000, seed=0)
    assert est == 1.0
    assert est - half < 0.999
    assert half == est - wilson_bounds(est, 1000)[0]
