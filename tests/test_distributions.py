"""Distribution layer: CDF evaluation, convolution, composition, dominance."""

import dataclasses
import math
import random

import numpy as np
import pytest
from scipy import integrate

from smdpcheck import distributions
from smdpcheck.distributions import (
    Dirac,
    Exponential,
    GridSpec,
    MinMaxCdf,
    NumericConvolution,
    PhaseType,
    Shifted,
    Uniform,
    _bisect_sign_change,
    _cdf_equal,
    _crossings,
    _dominance_outcome,
    _dominance_t_max,
    _grid_cdf,
    _grid_diffs,
    _grid_times,
    _jumps,
    _kinks,
    _phase_expm_row,
    _scales,
    _shifted_point,
    atom_mass,
    cdf_eval,
    cdf_table,
    cdf_vec,
    compose_residence,
    convolve,
    convolve_power,
    dominates,
    measure_interval,
    pdf_vec,
    phase_type,
    render,
)
from smdpcheck.errors import UnsupportedComposition
from tests_support import (
    reference_bisect_sign_change,
    reference_conv_cdf,
    reference_dominates,
    reference_grid_times,
)


# --- independent oracles -----------------------------------------------------

def hypoexp_cdf(rates, t):
    """Alternating-sum hypoexponential CDF; valid for pairwise-distinct rates."""
    total = 0.0
    for i, ri in enumerate(rates):
        w = 1.0
        for j, rj in enumerate(rates):
            if i != j:
                w *= rj / (rj - ri)
        total += w * math.exp(-ri * t)
    return 1.0 - total


def hypoexp_pdf(rates, t):
    """Density of the alternating-sum form; valid for pairwise-distinct rates."""
    total = 0.0
    for i, ri in enumerate(rates):
        w = 1.0
        for j, rj in enumerate(rates):
            if i != j:
                w *= rj / (rj - ri)
        total += w * ri * math.exp(-ri * t)
    return total


def erlang_cdf(rate, n, t):
    """Closed form for the n-fold convolution of one exponential."""
    s = sum((rate * t) ** k / math.factorial(k) for k in range(n))
    return 1.0 - math.exp(-rate * t) * s


# --- cdf_eval ---------------------------------------------------------------

def test_exponential_cdf_limit():
    assert cdf_eval(Exponential(2.0), 1e6) == pytest.approx(1.0, abs=1e-12)


def test_phase_type_product_anomaly_value():
    # printed as ~0.09 for the two-step composite with rates 20 and 0.05
    assert cdf_eval(PhaseType((20.0, 0.05)), 2.0) == pytest.approx(0.0929, abs=0.005)


def test_phase_type_erlang_value():
    # printed as ~0.91 for the repeated-rate composite
    assert cdf_eval(PhaseType((2.0, 2.0)), 2.0) == pytest.approx(0.908, abs=0.005)


def test_phase_type_matches_alternating_sum_oracle():
    cases = [(2.0, 0.5), (20.0, 0.05), (1.0, 2.0, 3.0), (0.3, 1.7, 4.2, 9.0)]
    for rates in cases:
        for t in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            assert cdf_eval(PhaseType(rates), t) == pytest.approx(
                hypoexp_cdf(rates, t), abs=1e-9), (rates, t)


def test_phase_type_repeated_rates_match_erlang_oracle():
    for n in (2, 3, 5):
        for t in (0.2, 1.0, 3.0):
            assert cdf_eval(PhaseType((2.0,) * n), t) == pytest.approx(
                erlang_cdf(2.0, n, t), abs=1e-9)


def test_phase_type_extreme_rate_ratios():
    # large rate*t products route through the squaring path and must stay
    # fast and accurate (regression: the series loop used to spin forever
    # when float accumulation plateaued below its coverage target)
    import time

    t0 = time.monotonic()
    for rates in ((1000.0, 0.001), (500.0, 3.0, 0.02), (1e4, 1.0)):
        for t in (0.1, 1.0, 10.0, 1000.0):
            assert cdf_eval(PhaseType(rates), t) == pytest.approx(
                hypoexp_cdf(rates, t), abs=5e-9), (rates, t)
    assert time.monotonic() - t0 < 10.0


def test_phase_type_pdf_matches_cdf_derivative():
    d = PhaseType((2.0, 0.5, 1.0))
    for t in (0.3, 1.0, 2.5):
        h = 1e-6
        num = (cdf_eval(d, t + h) - cdf_eval(d, t - h)) / (2 * h)
        assert pdf_vec(d, np.array([t]))[0] == pytest.approx(num, rel=1e-4)


def test_cdf_total_on_edge_inputs():
    assert cdf_eval(Exponential(1.0), -1.0) == 0.0
    assert cdf_eval(Dirac(0.0), 0.0) == 1.0
    assert cdf_eval(Uniform(1.0, 2.0), math.inf) == 1.0


def test_cdf_nondecreasing_and_bounded():
    rng = random.Random(7)
    dists = [
        Exponential(3.0),
        Dirac(1.2),
        Uniform(0.5, 2.5),
        PhaseType((1.0, 4.0)),
        Shifted(Exponential(1.0), 0.7),
        convolve(Uniform(0.0, 1.0), Uniform(0.0, 2.0)),
        compose_residence("min", Uniform(0.0, 1.0), Exponential(1.0)),
    ]
    ts = sorted(rng.uniform(0.0, 8.0) for _ in range(40))
    for d in dists:
        vals = [cdf_eval(d, t) for t in ts]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:])), d


def test_cdf_vec_agrees_with_scalar():
    ts = np.linspace(0.0, 6.0, 37)
    closed_forms = ((Exponential(2.0), lambda t: -math.expm1(-2.0 * t)),
                    (Uniform(0.3, 1.1), lambda t: min(1.0, max(0.0, (t - 0.3) / 0.8))),
                    (Dirac(1.5), lambda t: 1.0 if t >= 1.5 else 0.0))
    for d, closed_form in closed_forms:
        vec = cdf_vec(d, ts)
        for t, v in zip(ts, vec):
            assert v == pytest.approx(closed_form(float(t)), abs=1e-12)
    # phase-type laws go through one kernel either way: the same bits
    for d in (PhaseType((2.0, 2.0, 0.5)), Shifted(PhaseType((1.0, 2.0)), 0.5)):
        vec = cdf_vec(d, ts)
        for t, v in zip(ts, vec):
            assert v == cdf_eval(d, float(t))


def _law_of_family(rng, family):
    """A seeded law of one of the seven families, with unrounded parameters."""
    def rate():
        return rng.uniform(0.05, 5.0)

    lo = rng.uniform(0.0, 2.0)
    uniform = Uniform(lo, lo + rng.uniform(0.1, 3.0))
    if family is Dirac:
        return Dirac(rng.uniform(0.0, 3.0))
    if family is Exponential:
        return Exponential(rate())
    if family is Uniform:
        return uniform
    if family is PhaseType:
        return PhaseType(tuple(rate() for _ in range(rng.randint(2, 4))))
    if family is Shifted:
        base = _law_of_family(rng, rng.choice((Dirac, Exponential, Uniform, PhaseType)))
        return Shifted(base, rng.uniform(0.0, 2.0))
    if family is MinMaxCdf:
        other = rng.choice((uniform, Dirac(rng.uniform(0.0, 3.0)), PhaseType((rate(), rate()))))
        return MinMaxCdf(rng.choice(("min", "max")), (Exponential(rate()), other))
    return NumericConvolution((_random_factor(rng), _random_factor(rng)))


def test_cdf_eval_is_a_one_point_cdf_vec_call_for_every_law():
    # cdf_eval has no closed form of its own: for every family, each time's
    # value is the matching entry of a cdf_vec call over a shuffled batch of
    # t < 0, t = 0, t = inf, the law's kinks (atoms, uniform ends, shifts,
    # crossings) and random times
    rng = random.Random(2204)
    pairs = 0
    for family in (Dirac, Exponential, Uniform, PhaseType, Shifted, MinMaxCdf, NumericConvolution):
        for _ in range(12):
            d = _law_of_family(rng, family)
            ts = [-1.5, 0.0, math.inf, *_kinks(d)[:6]] + [rng.uniform(0.0, 8.0) for _ in range(28)]
            batch = rng.sample(ts, len(ts))
            for t, v in zip(batch, cdf_vec(d, batch).tolist()):
                assert cdf_eval(d, t).hex() == v.hex(), (render(d), t)
            pairs += len(batch)
    assert pairs >= 2000


def test_phase_type_scalar_and_vector_agree_bitwise():
    # every regime: t <= 0, a negligible tail, the series, the matrix form
    # above lam*t = 20000; each point's bits must not depend on the others
    rng = random.Random(4242)
    for _ in range(12):
        rates = tuple(round(rng.uniform(0.2, 5.0), 3) for _ in range(rng.randint(2, 4)))
        ts = [-1.0, 0.0, 1e-7, 0.05, 0.7, 2.0, 6.5, 1e4, 1e6]
        _assert_scalar_equals_vector(PhaseType(rates), ts)
        assert cdf_vec(PhaseType(rates), [1e4, 1e6]).tolist() == [1.0, 1.0]
    for _ in range(2):
        rates = (round(rng.uniform(1e-3, 1e-2), 5), round(rng.uniform(0.5, 2.0), 3),
                 round(rng.uniform(500.0, 2000.0), 1))
        edge = 20000.0 / max(rates)
        ts = [0.5 * edge, edge, 1.5 * edge, 40.0 * edge, 3.0]
        _assert_scalar_equals_vector(PhaseType(rates), ts)
        assert 0.0 < cdf_vec(PhaseType(rates), [1.5 * edge])[0] < 1.0


def _assert_scalar_equals_vector(d, ts):
    rng = random.Random(len(ts))
    shuffled = rng.sample(ts, len(ts))
    for order in (ts, shuffled):
        cdf, pdf = cdf_vec(d, np.array(order)), pdf_vec(d, np.array(order))
        for t, F, f in zip(order, cdf, pdf):
            assert F == cdf_eval(d, t) and f == pdf_vec(d, [t])[0], (d, t)


def test_phase_type_expm_branch_density_and_continuity():
    # above lam*t = 20000 the CDF and density come from the squared matrix
    # form; check the density against the closed form, and both quantities
    # for a jump where the series hands over.  Float rounding on either side
    # of the switch is about 1e-11 (against 50-digit values), above the
    # 1e-12 truncation error, so the bounds below allow 1e-10.
    for rates in ((0.001, 1000.0), (0.02, 3.0, 500.0)):
        d = PhaseType(rates)
        for t in (50.0, 400.0, 3000.0):
            assert max(rates) * t > 20000.0
            assert pdf_vec(d, [t])[0] == pytest.approx(hypoexp_pdf(rates, t), rel=1e-8), (rates, t)
        edge = 20000.0 / max(rates)
        below, above = math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)
        assert max(rates) * below <= 20000.0 < max(rates) * above
        assert cdf_eval(d, above) == pytest.approx(cdf_eval(d, below), abs=1e-10)
        assert pdf_vec(d, [above])[0] == pytest.approx(pdf_vec(d, [below])[0], rel=1e-9)


def test_phase_type_matrix_form_bits_pinned():
    # (F, f) of rates (0.001, 1000) at lam*t = 25000 and 4e5, both in the matrix
    # form, as float.hex; a change to the Poisson weights or the squaring shows here
    d = PhaseType((0.001, 1000.0))
    assert [(cdf_eval(d, t).hex(), pdf_vec(d, [t])[0].hex()) for t in (25.0, 400.0)] == [
        ("0x1.9481a4de8ece0p-6", "0x1.ff5802ea8ac9ep-11"),
        ("0x1.51977237164c4p-2", "0x1.5f70ec6f0f34cp-11")]


# (rates, t, F, f) for the series regime, lam*t from 1e-3 to 19999: F and f
# are 50-digit values rounded to doubles, from the matrix exponential of the
# chain generator (a 90-digit run and the alternating sum agree to 1e-50):
#
#   import math, mpmath, random
#   def reference(rates, t):
#       with mpmath.workdps(50):
#           n = len(rates)
#           A = mpmath.zeros(n)
#           for i, r in enumerate(rates):
#               A[i, i] = -mpmath.mpf(r)
#               if i + 1 < n:
#                   A[i, i + 1] = mpmath.mpf(r)
#           row = mpmath.expm(A * mpmath.mpf(t))[0, :]
#           return float(1 - mpmath.fsum(row)), float(row[n - 1] * rates[-1])
#   rng = random.Random(20)
#   for i in range(24):
#       n = 2 + i % 9
#       base = [float(f"{10 ** rng.uniform(-3, 3):.3g}") for _ in range(rng.randint(1, n))]
#       rates = tuple(sorted(base + [rng.choice(base) for _ in range(n - len(base))]))
#       q = 1e-3 if i == 0 else 19999.0 if i in (1, 12) else \
#           float(f"{10 ** rng.uniform(-3, math.log10(19999.0)):.3g}")
#       print((rates, q / max(rates), *reference(rates, q / max(rates))))
#
# then nine hand-picked laws: stiff pairs next to the matrix-form switch,
# the values printed in the paper's figures, and Erlang chains of 10 stages.
_PHASE_REFERENCE = [
    ((0.0362, 0.0362), 0.027624309392265192, 4.996667916333403e-07, 3.616381809396818e-05),
    ((0.0104, 0.0104, 2.74), 7298.90510948905, 1.0, 8.555833715063312e-34),
    ((0.00416, 0.0822, 501.0, 918.0), 0.0020806100217864924, 7.131056164733303e-11, 1.199803472201652e-07),
    ((0.0158, 5.65, 5.65, 5.65, 5.65), 0.0008407079646017699, 5.617193297957406e-17, 3.3386349921865123e-13),
    ((0.00162, 0.00308, 0.897, 2.75, 68.2, 68.2), 5.9970674486803517e-05, 3.694364315279636e-30, 3.695431962137044e-25),
    ((0.0502, 13.9, 13.9, 14.5, 14.5, 14.5, 14.5), 0.006193103448275863, 2.7816691992178306e-14, 3.114314292830247e-11),
    ((0.0012, 0.0208, 0.0208, 0.0266, 0.0266, 0.0266, 0.0266, 143.0), 0.16713286713286712, 1.437557224679349e-22, 6.223474588953342e-21),
    ((0.00532, 0.00872, 0.0439, 0.0439, 0.272, 17.4, 99.3, 275.0, 342.0), 54.67836257309941, 0.009746466360779468, 0.0005888073406717215),
    ((0.00205, 0.00306, 0.0108, 0.0108, 0.0145, 0.0221, 0.0577, 0.373, 50.5, 276.0), 2.971014492753623, 6.106201994910752e-16, 1.6254136756068335e-15),
    ((0.259, 10.8), 0.20277777777777775, 0.030600420070147457, 0.22208805330994363),
    ((0.00212, 0.00507, 10.1), 0.2089108910891089, 1.0477669745807123e-07, 1.3095275973401614e-06),
    ((0.00119, 0.00448, 2.77, 2.77), 0.027292418772563175, 9.175809204432356e-13, 1.3347137515932598e-10),
    ((546.0, 546.0, 546.0, 546.0, 546.0), 36.62820512820513, 1.0, 0.0),
    ((1.2, 1.2, 1.2, 1.2, 16.0, 16.0), 152.5, 1.0, 4.775898460654733e-74),
    ((0.0153, 0.0203, 0.0203, 0.0447, 0.0447, 0.213, 0.213), 0.038638497652582156, 1.4540212607439282e-23, 2.6331609821998638e-21),
    ((0.00105, 0.0135, 0.269, 0.269, 0.491, 6.39, 7.72, 208.0), 2.375e-05, 1.2966515739923418e-44, 4.367347238284477e-39),
    ((0.00107, 0.0073, 0.0073, 0.0073, 0.0175, 0.0175, 5.46, 22.6, 22.6), 0.034380530973451326, 5.545865304151947e-29, 1.4249756013271975e-26),
    ((0.00115, 0.00251, 0.00263, 0.654, 24.5, 24.5, 32.1, 72.6, 72.6, 609.0), 3.333333333333333e-05, 1.4299291198993247e-49, 4.287152967865636e-44),
    ((4.52, 628.0), 1.6560509554140125e-06, 3.891023447809494e-09, 0.004698338843751284),
    ((0.0185, 0.0185, 0.0185), 5783.783783783784, 1.0, 3.592524383195815e-45),
    ((3.12, 3.12, 3.12, 3.12), 0.0007403846153846154, 1.1842247474673496e-12, 6.39493394743258e-09),
    ((0.18, 0.18, 0.18, 0.18, 192.0), 5.520833333333333e-06, 8.613034317924748e-30, 7.800207294636132e-24),
    ((0.00355, 0.0822, 0.0822, 44.3, 44.3, 169.0), 100.59171597633136, 0.23568917563677402, 0.0027048341281516496),
    ((0.123, 0.123, 0.191, 0.191, 0.191, 5.5, 5.5), 64.9090909090909, 0.9695188565774188, 0.0029095830386407775),
    ((0.001, 1000.0), 19.999, 0.019799366293447584, 0.0009802006337065524),
    ((0.001, 1000.0), 1.0, 0.0009985011651261735, 0.0009990014988348738),
    ((0.05, 20.0), 2.0, 0.09289481901156936, 0.04535525904942153),
    ((2.0, 2.0), 2.0, 0.9084218055563291, 0.14652511110987343),
    ((0.3, 1.7, 4.2, 9.0), 5.0, 0.6982431401860791, 0.09040062912162944),
    ((0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5), 20.0, 0.5420702855281478, 0.06255501786056665),
    ((1000.0, 1000.0, 1000.0, 1000.0, 1000.0, 1000.0, 1000.0, 1000.0, 1000.0, 1000.0), 0.01, 0.5420702855281478, 125.1100357211333),
    ((0.001, 0.001, 1.0, 1000.0), 19.5, 0.00016949327337886037, 1.8158959304058168e-05),
    ((0.02, 3.0, 500.0), 39.99, 0.5475468291578407, 0.009049063416843186),
]


def test_phase_series_against_50_digit_values():
    # the bound README "Tolerances" states: 2e-11 for F, 2e-11 * lam for f
    assert len({rates for rates, *_ in _PHASE_REFERENCE}) >= 20
    for rates, t, F, f in _PHASE_REFERENCE:
        d = PhaseType(rates)
        assert 1e-3 <= max(rates) * t < 20000.0
        assert abs(cdf_vec(d, [t])[0] - F) <= 2e-11, (rates, t)
        assert abs(pdf_vec(d, [t])[0] - f) <= 2e-11 * max(rates), (rates, t)


def test_phase_series_where_rate_times_t_underflows():
    # 0.5 * 5e-324 rounds to 0: F = f = 0 as at t = 0, with no log(0)
    d = PhaseType((0.25, 0.5))
    assert 0.5 * 5e-324 == 0.0
    assert cdf_eval(d, 5e-324) == 0.0
    assert cdf_vec(d, [5e-324, 1e-300]).tolist() == [0.0, cdf_eval(d, 1e-300)]
    assert pdf_vec(d, [5e-324]).tolist() == [0.0]


def _cold_phase_caches(monkeypatch, budget=1 << 22):
    """Empty weight and cdf_eval caches, and fresh rows with the given budget in bytes."""
    cdf_eval.cache_clear()
    monkeypatch.setattr(distributions, "_poisson_cache", distributions._Lru(distributions._poisson_cache.budget))
    rows = distributions._PhaseRows(budget)
    monkeypatch.setattr(distributions, "_phase_rows", rows)
    return rows


def _phase_bits(d, ts):
    return cdf_vec(d, ts).tobytes(), pdf_vec(d, ts).tobytes()


def test_phase_type_bits_depend_on_law_and_t_alone(monkeypatch):
    """The same bits with cold caches, after the law's prefixes (the law less
    its slowest rates) were evaluated, after forced evictions, and one point
    at a time."""
    rng = random.Random(31)
    for _ in range(10):
        rates = tuple(sorted(round(10 ** rng.uniform(-2, 2), 3) for _ in range(rng.randint(2, 7))))
        d = PhaseType(rates)
        lam = max(rates)
        ts = [q / lam for q in (1e-3, 0.4, 3.0, 40.0, 900.0, 15000.0)] + [rng.uniform(0.0, 30.0)]
        _cold_phase_caches(monkeypatch)
        cold = _phase_bits(d, ts)
        _cold_phase_caches(monkeypatch)
        for n in range(2, len(rates)):
            cdf_vec(PhaseType(rates[-n:]), ts[::-1])
        assert _phase_bits(d, ts) == cold, rates
        rows = _cold_phase_caches(monkeypatch, budget=1024)
        for t in ts:
            cdf_vec(PhaseType(rates[-2:]), [t])
        assert _phase_bits(d, ts) == cold, rates
        assert rows.held <= 1024 and rates[::-1] not in rows.items
        _cold_phase_caches(monkeypatch)
        F, f = zip(*[(cdf_eval(d, t), pdf_vec(d, [t])[0]) for t in ts])
        assert (np.array(F).tobytes(), np.array(f).tobytes()) == cold, rates


def test_phase_rows_of_a_longer_law_add_one_column(monkeypatch):
    # (2, 3, 5) is the prefix of (1, 2, 3, 5): the longer law holds one more
    # tuple, whose rows, 16 bytes each, are the only ones added, and the
    # prefix's rows are read, not rebuilt
    rows = _cold_phase_caches(monkeypatch)
    cdf_vec(PhaseType((2.0, 3.0, 5.0)), [0.7, 4.0])
    held, tuples, prefix = rows.held, len(rows.items), rows.get((5.0, 3.0, 2.0))
    cdf_vec(PhaseType((1.0, 2.0, 3.0, 5.0)), [0.7, 4.0])
    assert len(rows.items) == tuples + 1 and rows.get((5.0, 3.0, 2.0)) is prefix
    assert rows.held - held == 16 * len(rows.get((5.0, 3.0, 2.0, 1.0))[0])


def test_phase_caches_hold_their_budget_and_reject_writes(monkeypatch):
    rows = _cold_phase_caches(monkeypatch)
    cdf_vec(PhaseType((1.0, 2.0, 3.0)), [1.5, 15000.0 / 3.0])
    weights = distributions._poisson_weights(3.0 * 1.5, 1e-12)
    assert weights is distributions._poisson_weights(3.0 * 1.5, 1e-12)
    for cached in (weights, *rows.get((3.0, 2.0, 1.0))):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.5
    # the weights of these 40 times take 5.2 MB, past the 256 KiB budget
    cdf_vec(PhaseType((0.01, 0.5, 100.0)), np.linspace(199.0, 100.0, 40))
    cache = distributions._poisson_cache
    assert len(cache.items) < 40
    assert cache.held == sum(nbytes for nbytes, _ in cache.items.values()) <= cache.budget
    assert rows.held == sum(nbytes for nbytes, _ in rows.items.values()) <= rows.budget


def test_cdf_table_and_pdf_vec_match_one_law_calls(monkeypatch):
    """cdf_table rows and _phase_kernel values over many shuffled jobs are the bits of
    one-law, one-time calls, in every regime: t <= 0, lam*t underflowing to 0, a
    negligible tail, the series and the matrix form above lam*t = 20000, for bare
    and shifted phase-type laws (and the other families cdf_table passes through)."""
    rng = random.Random(24)
    laws = [PhaseType((0.001, 1000.0)), PhaseType((0.25, 0.5)), Exponential(2.0), Uniform(0.5, 1.5),
            MinMaxCdf("max", (Exponential(1.0), Uniform(0.2, 0.9)))]
    for _ in range(10):
        d = PhaseType(tuple(round(10 ** rng.uniform(-1, 1), 3) for _ in range(rng.randint(2, 4))))
        laws += [d, Shifted(d, rng.choice((0.25, 1.5)))]
    times = [-1.0, 0.0, 5e-324, 1e-300, 0.02, 0.7, 3.0, 25.0, 400.0, 2500.0, math.inf]
    times += [rng.uniform(0.0, 40.0) for _ in range(6)]
    expm = []
    monkeypatch.setattr(distributions, "_phase_expm_row",
                        lambda rates, t: expm.append(t) or _phase_expm_row(rates, t))
    for _ in range(3):
        rng.shuffle(laws)
        rng.shuffle(times)
        table = cdf_table(laws, times)
        jobs = [(d.rates, np.array(times)[rng.sample(range(len(times)), 8)].reshape(2, 4))
                for d in laws if isinstance(d, PhaseType)]
        for density in (False, True):
            for (rates, ts), got in zip(jobs, distributions._phase_kernel(jobs, density)):
                one = (pdf_vec if density else cdf_vec)
                want = [one(PhaseType(rates), [t])[0] for t in ts.ravel()]
                assert got.shape == ts.shape and got.tobytes() == np.array(want).reshape(ts.shape).tobytes()
        for d, row in zip(laws, table):
            assert row.tobytes() == np.array([cdf_vec(d, [t])[0] for t in times]).tobytes(), d
    assert expm  # the matrix form ran: (0.001, 1000) at t = 25
    assert 0.5 * 5e-324 == 0.0 and table[laws.index(PhaseType((0.25, 0.5))), times.index(5e-324)] == 0.0
    assert (table[:, times.index(2500.0)] == 1.0).sum() > 5  # negligible tails


# --- convolve ---------------------------------------------------------------

def test_dirac_zero_is_identity():
    mu = Exponential(1.3)
    assert convolve(Dirac(0.0), mu) == mu
    assert convolve(mu, Dirac(0.0)) == mu


def test_exponential_pair_merges_to_phase_type():
    d = convolve(Exponential(0.5), Exponential(2.0))
    assert d == PhaseType((0.5, 2.0))
    assert cdf_eval(d, 2.0) == pytest.approx(0.5156, abs=0.005)


def test_convolution_is_commutative_by_value():
    rng = random.Random(3)
    pool = [Exponential(2.0), Uniform(0.0, 1.0), Dirac(0.4), PhaseType((1.0, 3.0))]
    for _ in range(6):
        a, b = rng.choice(pool), rng.choice(pool)
        for t in (0.5, 1.0, 3.0):
            assert cdf_eval(convolve(a, b), t) == pytest.approx(
                cdf_eval(convolve(b, a), t), abs=1e-9)


def test_convolution_algebra_on_random_triples():
    rng = random.Random(11)
    pool = [Exponential(2.0), Exponential(0.5), Uniform(0.0, 1.5), Dirac(0.7),
            PhaseType((1.0, 1.0))]
    grid = np.linspace(0.0, 10.0, 64)
    for _ in range(5):
        a, b, c = (rng.choice(pool) for _ in range(3))
        left = convolve(convolve(a, b), c)
        right = convolve(a, convolve(b, c))
        ab = convolve(a, b)
        ba = convolve(b, a)
        for t in grid:
            t = float(t)
            assert abs(cdf_eval(left, t) - cdf_eval(right, t)) <= 1e-8
            assert abs(cdf_eval(ab, t) - cdf_eval(ba, t)) <= 1e-9


def test_dirac_convolutions_become_shifts():
    assert convolve(Dirac(1.0), Dirac(2.5)) == Dirac(3.5)
    assert convolve(Dirac(1.0), Exponential(2.0)) == Shifted(Exponential(2.0), 1.0)
    nested = convolve(Dirac(0.5), Shifted(Uniform(0.0, 1.0), 1.0))
    assert nested == Shifted(Uniform(0.0, 1.0), 1.5)


def test_canonicalization_is_idempotent():
    d = convolve(convolve(Exponential(1.0), Dirac(0.3)), Exponential(2.0))
    assert d == Shifted(PhaseType((1.0, 2.0)), 0.3)
    again = convolve(d, Dirac(0.0))
    assert again == d


def test_numeric_convolution_against_closed_forms():
    ih2 = convolve(Uniform(0.0, 1.0), Uniform(0.0, 1.0))
    assert isinstance(ih2, NumericConvolution)
    assert cdf_eval(ih2, 0.5) == pytest.approx(0.125, abs=1e-8)
    assert cdf_eval(ih2, 1.5) == pytest.approx(0.875, abs=1e-8)
    ue = convolve(Uniform(0.0, 1.0), Exponential(1.0))
    assert cdf_eval(ue, 0.7) == pytest.approx(0.7 - 1.0 + math.exp(-0.7), abs=1e-8)
    assert cdf_eval(ue, 2.0) == pytest.approx(1.0 - math.exp(-2.0) * (math.e - 1.0), abs=1e-8)


def test_numeric_convolution_against_quadrature_oracle():
    d = convolve(Uniform(0.0, 2.0), PhaseType((1.0, 3.0)))
    for t in (0.5, 1.5, 4.0):
        oracle, _ = integrate.quad(lambda x: 0.5 * hypoexp_cdf((1.0, 3.0), t - x),
                                   0.0, min(t, 2.0))
        assert cdf_eval(d, t) == pytest.approx(oracle, abs=1e-7)


# --- numeric convolution kernel ---------------------------------------------

def _random_factor(rng):
    """A law of the kinds the kernel integrates: uniform, exponential, shifted,
    or min/max of two of exp, uniform and Dirac."""
    e = Exponential(round(rng.uniform(0.4, 3.0), 2))
    lo = round(rng.uniform(0.0, 0.6), 2)
    u = Uniform(lo, round(lo + rng.uniform(0.3, 1.5), 2))
    dirac = Dirac(rng.choice((0.25, 0.5, 0.75, 1.0)))
    kind = rng.randrange(6)
    if kind == 0:
        return u
    if kind == 1:
        return e
    if kind == 2:
        return Shifted(rng.choice((e, u)), round(rng.uniform(0.1, 0.8), 2))
    return compose_residence(rng.choice(("min", "max")), *((e, u), (e, dirac), (u, dirac))[kind - 3])


def _seeded_convolutions():
    rng = random.Random(2026)
    return [NumericConvolution(tuple(_random_factor(rng) for _ in range(n))) for n in (2,) * 10 + (3,) * 3]


def _kernel_test_times(d):
    """t <= 0, two plain times, and times at the law's kinks and its factors' crossings."""
    crossings = [c for f in d.factors if isinstance(f, MinMaxCdf) for c in _crossings(f)]
    return [-0.5, 0.0, 1.3, 4.0] + [k for k in _kinks(d) if k < 6.0][:5] + crossings


def test_conv_kernel_matches_refined_split_reference():
    # the reference takes the last factor as the integrator and splits each
    # piece 200 times (4 for three factors, whose inner level recurses)
    for d in _seeded_convolutions():
        ts = _kernel_test_times(d)
        ref = reference_conv_cdf(d, ts, splits=200 if len(d.factors) == 2 else 4)
        assert np.abs(cdf_vec(d, ts) - ref).max() <= 1e-12, render(d)


def test_conv_kernel_against_30_digit_values():
    # Both values are mpmath at 40 digits: tanh-sinh quadrature of
    # f_head(x) F_rest(t - x) on pieces cut at every uniform end, at every
    # min/max crossing (mpmath.findroot) and at t minus each of the other
    # factor's kinks.  The first law is anomaly-audit's seed 11, instance 205
    # ("aa" over the min composite): integrate.quad gave 0.9998755600337815
    # at t = 10, off by -1.23e-4.  For the second, quad was off by 9.05e-7.
    d = convolve(MinMaxCdf("min", (Exponential(1.5), Uniform(0.27, 1.38))),
                 MinMaxCdf("min", (Exponential(2.85), Uniform(0.41, 1.09))))
    assert abs(cdf_eval(d, 10.0) - 0.999998936608038261215221304630) <= 1e-15
    d = convolve(MinMaxCdf("max", (Exponential(0.6), Uniform(0.48, 1.0))),
                 MinMaxCdf("max", (Exponential(3.0), Uniform(0.42, 1.77))))
    assert abs(cdf_eval(d, 2.0) - 0.977320356750124106139852274082) <= 1e-15


def test_conv_cdf_eval_is_a_one_point_cdf_vec_call():
    # Faster-than reads cdf_vec rows, and its witness is re-verified through
    # cdf_eval: the two must agree bit for bit whatever else is in the batch.
    # The time 1e4 puts stiff-rate cuts into every row of its batch.
    rng = random.Random(11)
    for d in _seeded_convolutions()[:8]:
        ts = [-1.0, 0.0, math.inf, 1e4] + _kernel_test_times(d) + [rng.uniform(0.0, 12.0) for _ in range(12)]
        one_point = [cdf_eval(d, t).hex() for t in ts]
        for batch in (ts, rng.sample(ts, len(ts)), ts[1::2], ts[4:]):
            expected = [one_point[ts.index(t)] for t in batch]
            assert [x.hex() for x in cdf_vec(d, batch)] == expected, render(d)
        grid = cdf_vec(d, np.array(ts[:12]).reshape(3, 4))
        assert [x.hex() for x in grid.ravel()] == one_point[:12]


def test_conv_kernel_resolves_stiff_rates():
    # rate 50 against a uniform over [0, 10]: 24 nodes on one piece would be
    # off by 1.2e-4; F(t) = t/10 - (1 - e^{-50 t}) / 500 for t <= 10
    d = convolve(Uniform(0.0, 10.0), Exponential(50.0))
    for t in (0.5, 5.0, 10.0):
        assert abs(cdf_eval(d, t) - (t / 10.0 + math.expm1(-50.0 * t) / 500.0)) <= 1e-15, t


def test_jumps_of_laws_with_atoms():
    assert _jumps(Dirac(0.5)) == ((0.5, 1.0),)
    assert _jumps(Shifted(Dirac(0.5), 0.25)) == ((0.75, 1.0),)
    # min follows the Dirac part up to 0.5 (F = 0), then the exponential: one
    # jump of F_exp(0.5); max jumps from F_exp(0.5) to 1
    e = Exponential(1.0)
    assert _jumps(MinMaxCdf("min", (Dirac(0.5), e))) == ((0.5, cdf_eval(e, 0.5)),)
    assert _jumps(MinMaxCdf("max", (Dirac(0.5), e))) == ((0.5, 1.0 - cdf_eval(e, 0.5)),)
    assert _jumps(MinMaxCdf("min", (Uniform(0.0, 1.0), e))) == ()


def test_convolve_power():
    assert convolve_power(Exponential(1.0), 0) == Dirac(0.0)
    assert convolve_power(Exponential(2.0), 3) == PhaseType((2.0, 2.0, 2.0))
    # Erlang-2 closed form evaluated by hand: 1 - 3 e^{-2}
    assert cdf_eval(convolve_power(Exponential(1.0), 2), 2.0) == pytest.approx(
        0.5939941502901619, abs=1e-6)
    with pytest.raises(ValueError):
        convolve_power(Exponential(1.0), -1)


# --- compose_residence ------------------------------------------------------

def test_exponential_composition_rules():
    assert compose_residence("min", Exponential(2.0), Exponential(1.0)) == Exponential(1.0)
    assert compose_residence("prodrate", Exponential(2.0), Exponential(10.0)) == Exponential(20.0)
    assert compose_residence("max", Exponential(0.5), Exponential(2.0)) == Exponential(2.0)


def test_product_rate_requires_exponentials():
    with pytest.raises(UnsupportedComposition):
        compose_residence("prodrate", Exponential(1.0), Uniform(0.0, 1.0))


def test_composition_is_commutative():
    a, b = Uniform(0.0, 1.0), Exponential(2.0)
    assert compose_residence("min", a, b) == compose_residence("min", b, a)
    assert compose_residence("max", a, b) == compose_residence("max", b, a)


def test_min_max_agree_with_pointwise_cdf():
    a, b = Exponential(2.0), Exponential(0.7)
    lo = compose_residence("min", a, b)
    hi = compose_residence("max", a, b)
    for t in np.linspace(0.0, 8.0, 33):
        t = float(t)
        fa, fb = cdf_eval(a, t), cdf_eval(b, t)
        assert abs(cdf_eval(lo, t) - min(fa, fb)) <= 1e-12
        assert abs(cdf_eval(hi, t) - max(fa, fb)) <= 1e-12


def test_min_max_wrapper_for_incomparable_cdfs():
    a, b = Uniform(0.0, 1.0), Exponential(1.0)
    lo = compose_residence("min", a, b)
    assert isinstance(lo, MinMaxCdf)
    for t in (0.2, 0.8, 1.5, 3.0):
        assert cdf_eval(lo, t) == pytest.approx(min(cdf_eval(a, t), cdf_eval(b, t)), abs=1e-12)


def test_min_max_of_nested_uniforms():
    """Uniform(1, 2) lies inside Uniform(0, 3): neither CDF dominates, so
    neither operand is the min or the max."""
    a, b = Uniform(0.0, 3.0), Uniform(1.0, 2.0)
    for x, y in ((a, b), (b, a)):
        lo, hi = compose_residence("min", x, y), compose_residence("max", x, y)
        for t in (0.5, 1.75, 2.5):
            fa, fb = cdf_eval(a, t), cdf_eval(b, t)
            assert cdf_eval(lo, t) == pytest.approx(min(fa, fb), abs=1e-12), (x, y, t)
            assert cdf_eval(hi, t) == pytest.approx(max(fa, fb), abs=1e-12), (x, y, t)


def test_dirac_composition():
    assert compose_residence("min", Dirac(1.0), Dirac(2.0)) == Dirac(2.0)
    assert compose_residence("max", Dirac(1.0), Dirac(2.0)) == Dirac(1.0)


def test_minmax_wrapper_convolution_falls_back_to_numeric():
    lo = compose_residence("min", Uniform(0.0, 1.0), Exponential(1.0))
    conv = convolve(lo, Exponential(2.0))
    assert isinstance(conv, NumericConvolution)
    # sanity: value between the convolutions of the two branches
    lower = convolve(Uniform(0.0, 1.0), Exponential(2.0))
    upper = convolve(Exponential(1.0), Exponential(2.0))
    for t in (0.5, 1.5, 3.0):
        v = cdf_eval(conv, t)
        bounds = sorted((cdf_eval(lower, t), cdf_eval(upper, t)))
        assert bounds[0] - 1e-7 <= v <= bounds[1] + 1e-7


# --- dominance --------------------------------------------------------------

def test_dominates_exponential_rates():
    assert dominates(Exponential(2.0), Exponential(0.5)).outcome == "HoldsAnalytic"
    v = dominates(Exponential(0.5), Exponential(5.0))
    assert v.outcome == "FailsAtWitness"
    assert cdf_eval(Exponential(0.5), v.witness_t) < cdf_eval(Exponential(5.0), v.witness_t)


def test_dominates_reflexive():
    for d in (Exponential(1.0), Uniform(0.0, 2.0), PhaseType((1.0, 2.0)),
              convolve(Uniform(0.0, 1.0), Uniform(0.0, 1.0))):
        assert dominates(d, d).outcome == "HoldsAnalytic"


def test_dominates_transitive_analytic_on_exponentials():
    rates = [0.3, 0.9, 2.7, 8.1]
    for r1 in rates:
        for r2 in rates:
            for r3 in rates:
                a = dominates(Exponential(r1), Exponential(r2)).holds
                b = dominates(Exponential(r2), Exponential(r3)).holds
                c = dominates(Exponential(r1), Exponential(r3)).holds
                if a and b:
                    assert c


def test_dominates_dirac_points():
    assert dominates(Dirac(1.0), Dirac(2.0)).outcome == "HoldsAnalytic"
    assert dominates(Dirac(2.0), Dirac(1.0)).outcome == "FailsAtWitness"


def test_dominates_rescans_a_failed_rule_on_8192_points():
    # the rule fails, but the 512-point grid (spacing 0.078 up to 40) has no
    # time in [1.0, 1.01): the 8192-point rescan finds one
    assert not (_grid_diffs(Dirac(1.01), Dirac(1.0))[1] < 0.0).any()
    v = dominates(Dirac(1.01), Dirac(1.0))
    assert v.outcome == "FailsAtWitness" and v.witness_t == 1.0009765625


def test_exponential_and_dirac_rule_agrees_with_an_8192_point_scan():
    """An exponential never dominates a point mass or a uniform, nor a point
    mass or a uniform whose first point is above 0 an exponential; Dirac(0)
    dominates every law, and no rule decides Uniform(0, hi) against an
    exponential.  On seeded pairs, both ways round, the rule says what an
    8192-point scan of the pair's dominance grid says, as long as the
    exponential CDF is below 1 in floating point at the point or at the
    uniform's end (rate * point below about 37; rate * hi <= 24 here).
    Beyond that the scan sees no gap and the rule still refutes, as it must."""
    rng = random.Random(26)
    for _ in range(200):
        e = Exponential(round(rng.uniform(0.05, 8.0), 3))
        d = Dirac(round(rng.uniform(0.0, 3.0), 3) if rng.random() < 0.9 else 0.0)
        for d1, d2 in ((e, d), (d, e)):
            rule = distributions._analytic_dominance_rule(d1, d2)
            assert rule is (d1 == Dirac(0.0)), (d1, d2)
            assert rule == (not (_grid_diffs(d1, d2, 8192)[1] < 0.0).any()), (d1, d2)
    for _ in range(200):
        e = Exponential(round(rng.uniform(0.05, 8.0), 3))
        lo = round(rng.uniform(0.01, 2.0), 3) if rng.random() < 0.9 else 0.0
        u = Uniform(lo, lo + round(rng.uniform(0.01, 1.0), 3))
        if e.rate * u.hi > 24.0:
            continue
        assert distributions._analytic_dominance_rule(e, u) is False, (e, u)
        assert (_grid_diffs(e, u, 8192)[1] < 0.0).any(), (e, u)
        rule = distributions._analytic_dominance_rule(u, e)
        assert rule is (None if lo == 0.0 else False), (u, e)
        if rule is False:
            assert (_grid_diffs(u, e, 8192)[1] < 0.0).any(), (u, e)
    for fast, slow in ((Exponential(40.0), Dirac(1.0)), (Exponential(40.0), Uniform(1.0, 2.0))):
        assert not (_grid_diffs(fast, slow, 8192)[1] < 0.0).any()
        assert distributions._analytic_dominance_rule(fast, slow) is False
        assert dominates(fast, slow) == distributions.DominanceVerdict("FailsAtWitness")


def test_dominates_grid_verdict_for_mixed_families():
    v = dominates(Dirac(0.2), Exponential(1.0))
    assert v.outcome in ("HoldsOnGrid", "FailsAtWitness")
    # Dirac(0.2) vs slow exponential: step beats the curve only after 0.2
    assert v.outcome == "FailsAtWitness"
    v2 = dominates(Dirac(0.0), Exponential(1.0))
    assert v2.holds


def test_dominates_witness_reverifiable():
    v = dominates(Uniform(0.0, 10.0), Uniform(1.0, 2.0))
    assert v.outcome == "FailsAtWitness"
    assert cdf_eval(Uniform(0.0, 10.0), v.witness_t) < cdf_eval(Uniform(1.0, 2.0), v.witness_t)


def test_grid_failure_witness_makes_no_scalar_cdf_calls(monkeypatch):
    """No rule decides Dirac(0.2) against Exponential(1.0); the grid scan
    fails, and the witness, the deepest grid violation, comes straight from
    the vector scan: no crossing is bisected with scalar cdf_eval."""
    calls = []
    scalar = distributions.cdf_eval
    monkeypatch.setattr(distributions, "cdf_eval", lambda *a: calls.append(a) or scalar(*a))
    fast, slow = Dirac(0.2), Exponential(1.0)
    verdict = dominates(fast, slow)
    assert verdict.outcome == "FailsAtWitness" and calls == []
    ts = reference_grid_times(_dominance_t_max(fast, slow), 512)
    diffs = cdf_vec(fast, ts) - cdf_vec(slow, ts)
    assert verdict.witness_t == float(ts[diffs.argmin()]) and diffs.min() < 0.0


def _random_part(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Exponential(round(rng.uniform(0.2, 4.0), 2))
    if kind == 1:
        lo = round(rng.uniform(0.0, 1.0), 2)
        return Uniform(lo, round(lo + rng.uniform(0.1, 2.0), 2))
    if kind == 2:
        return Dirac(round(rng.uniform(0.0, 2.0), 2))
    return Shifted(Exponential(round(rng.uniform(0.2, 4.0), 2)), round(rng.uniform(0.05, 1.0), 2))


def _random_law_pair(rng, part=_random_part):
    """Two laws; in half of the pairs they share a part, so their CDFs touch."""
    kinds = ("min", "max")
    if rng.random() < 0.5:
        return part(rng), part(rng)
    a, b, c = part(rng), part(rng), part(rng)
    left = MinMaxCdf(rng.choice(kinds), (a, b))
    right = a if rng.random() < 0.3 else MinMaxCdf(rng.choice(kinds), (c, a))
    return (left, right) if rng.random() < 0.5 else (right, left)


def _random_phase_part(rng):
    if rng.random() < 0.5:
        return _random_part(rng)
    rates = [round(rng.uniform(0.5, 3.0), 1) for _ in range(rng.randint(2, 3))]
    return PhaseType(rates) if rng.random() < 0.7 else Shifted(PhaseType(rates), 0.25)


def test_dominates_matches_scalar_scan():
    rng = random.Random(20260)
    pairs = [_random_law_pair(rng) for _ in range(400)]
    # a pair with phase-type parts costs about 50 ms, ten plain pairs' worth
    pairs += [_random_law_pair(rng, _random_phase_part) for _ in range(15)]
    outcomes = set()
    for d1, d2 in pairs:
        verdict = dominates(d1, d2)
        assert verdict == reference_dominates(d1, d2), (d1, d2)
        assert _dominance_outcome(d1, d2) == (verdict.outcome if verdict.holds else None), (d1, d2)
        outcomes.add(verdict.outcome)
    assert outcomes == {"HoldsAnalytic", "HoldsOnGrid", "FailsAtWitness"}


def test_dominance_outcome_matches_dominates_with_phase_type_parts():
    rng = random.Random(77)
    for _ in range(60):
        d1, d2 = _random_law_pair(rng, _random_phase_part)
        verdict = dominates(d1, d2)
        assert _dominance_outcome(d1, d2) == (verdict.outcome if verdict.holds else None), (d1, d2)


def test_dominates_past_the_largest_float():
    """A rule refutes these pairs, whose dominance grids would end past the
    largest float: they fail with no witness.  Where no rule decides such a
    pair, the error names both laws."""
    for d1, d2 in ((Exponential(1e-310), Uniform(0.0, 1.0)), (Exponential(1.0), Dirac(1e308))):
        assert dominates(d1, d2) == distributions.DominanceVerdict("FailsAtWitness"), (d1, d2)
    with pytest.raises(ValueError, match=r"uniform\(0,1\) and exp\(1e-310\)"):
        dominates(Uniform(0.0, 1.0), Exponential(1e-310))


def _table_pairs():
    """Seeded pairs of exponential, uniform, Dirac, phase-type and min/max
    laws, with the cases where a rule decides one way only: Dirac(0) against
    anything, nested uniforms, and phase-type pairs; and min/max laws that
    are equal as functions but not as values."""
    rng = random.Random(1905)
    pairs = [_random_law_pair(rng) for _ in range(60)]
    pairs += [_random_law_pair(rng, _random_phase_part) for _ in range(6)]
    pairs += [pair for d, _ in pairs[:8] for pair in ((Dirac(0.0), d), (d, Dirac(0.0)))]
    u, e = Uniform(0.25, 1.5), Exponential(1.5)
    pairs += [(Uniform(0.0, 3.0), Uniform(1.0, 2.0)), (Uniform(1.0, 2.0), Uniform(0.0, 3.0)),
              (MinMaxCdf("min", (u, Uniform(0.0, 3.0))), MinMaxCdf("min", (Uniform(1.0, 2.0), u))),
              (PhaseType((1.0, 4.0)), PhaseType((2.0, 2.0))), (PhaseType((1.0, 2.0)), Exponential(0.5)),
              (PhaseType((1.0, 2.0)), PhaseType((1.5, 3.0))), (PhaseType((2.0, 3.0)), PhaseType((1.0, 2.0, 4.0))),
              (MinMaxCdf("max", (u, e)), MinMaxCdf("max", (e, u))), (MinMaxCdf("min", (u, e)), u), (Exponential(1), Exponential(1.0))]
    return pairs


def test_grid_diffs_are_fresh_cdf_vec_differences():
    """The cached tables give the bits of a fresh tabulation, cold or warm."""
    def check(d1, d2):
        ts, diffs = _grid_diffs(d1, d2)
        fresh = reference_grid_times(_dominance_t_max(d1, d2), 512)
        assert ts.tobytes() == fresh.tobytes(), (d1, d2)
        assert diffs.tobytes() == (cdf_vec(d1, fresh) - cdf_vec(d2, fresh)).tobytes(), (d1, d2)

    pairs = _table_pairs()
    for d1, d2 in pairs:
        _grid_cdf.cache_clear()
        _grid_times.cache_clear()
        check(d1, d2)
    for d1, d2 in pairs:
        _grid_diffs(d1, d2)
    misses = _grid_cdf.cache_info().misses
    for d1, d2 in pairs:
        check(d1, d2)
    assert _grid_cdf.cache_info().misses == misses


def test_grid_tables_reject_writes():
    d1, d2 = MinMaxCdf("min", (Uniform(0.0, 1.0), Exponential(1.0))), Exponential(2.0)
    ts, _ = _grid_diffs(d1, d2)
    table = _grid_cdf(d1, _dominance_t_max(d1, d2))
    for cached in (ts, table, _grid_times(4.0, 512)):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.5


def test_grid_tables_of_equal_laws_with_different_bits_agree():
    """Tables are keyed by law value: == laws must tabulate to the same bits."""
    ts = _grid_times(20.0, 512)
    for a, b in ((Exponential(1), Exponential(1.0)), (Dirac(0.0), Dirac(-0.0)),
                 (Uniform(0, 2), Uniform(-0.0, 2.0)), (Shifted(Exponential(2.0), 1), Shifted(Exponential(2.0), 1.0))):
        assert a == b
        _grid_cdf.cache_clear()
        assert _grid_cdf(a, 20.0).tobytes() == cdf_vec(b, ts).tobytes(), (a, b)


def test_cdf_equal_is_two_way_dominance_from_one_scan(monkeypatch):
    scans = []
    scan = distributions._grid_diffs
    monkeypatch.setattr(distributions, "_grid_diffs", lambda *a: scans.append(a) or scan(*a))
    answers = set()
    for d1, d2 in _table_pairs():
        scans.clear()
        equal, scanned = _cdf_equal(d1, d2), len(scans)
        assert scanned <= 1
        assert equal == bool(_dominance_outcome(d1, d2) and _dominance_outcome(d2, d1)), (d1, d2)
        answers.add((equal, scanned))
    assert answers == {(True, 0), (True, 1), (False, 0), (False, 1)}


def test_bisection_matches_scalar_bisection():
    """_bisect_sign_change, with one-point cdf_vec calls, ends on the float the
    bisection with cdf_eval finds, on the flips of seeded min/max laws with
    exponential, uniform and Dirac parts, and on random brackets, where both
    CDFs are often flat."""
    rng = random.Random(77)
    parts = [lambda: Exponential(round(rng.uniform(0.3, 4.0), 2)),
             lambda: Uniform(lo := round(rng.uniform(0.0, 1.0), 2), round(lo + rng.uniform(0.1, 2.0), 2)),
             lambda: Dirac(round(rng.uniform(0.0, 2.0), 2))]
    flips = 0
    for _ in range(40):
        a, b = rng.choice(parts)(), rng.choice(parts)()
        ts, diffs = _grid_diffs(a, b)
        signed = np.flatnonzero(diffs)
        above = diffs[signed] > 0.0
        brackets = [(float(ts[signed[k]]), float(ts[signed[k + 1]]), bool(above[k]))
                    for k in np.flatnonzero(above[:-1] != above[1:]).tolist()]
        flips += len(brackets)
        brackets += [(lo, lo + rng.uniform(0.0, 3.0), rng.random() < 0.5) for lo in
                     (rng.uniform(0.0, 3.0) for _ in range(3))]
        for lo, hi, up in brackets:
            assert _bisect_sign_change(a, b, lo, hi, up) == reference_bisect_sign_change(a, b, lo, hi, up)
    assert flips > 10


def test_crossings_stop_at_a_sign_change_between_adjacent_floats():
    """Each crossing x of a seeded min/max law is where F_a = F_b, or where
    F_a - F_b is nonzero at x and one float below with opposite signs."""
    rng = random.Random(2811)
    crossings = 0
    for _ in range(80):
        a, b = _random_part(rng), _random_part(rng)
        if a == b:
            continue
        for x in _crossings(MinMaxCdf(rng.choice(("min", "max")), (a, b))):
            at, below = (cdf_eval(a, y) - cdf_eval(b, y) for y in (x, math.nextafter(x, -math.inf)))
            assert at == 0.0 or at * below < 0.0, (a, b, x, at, below)
            crossings += 1
    assert crossings > 20


def test_dominance_grids_of_bit_twins_are_equal():
    """The dominance grid's scales are cached by value, so whichever of two == laws
    with other bits comes first, the other sizes the same dominance grid."""
    other = Uniform(0.5, 3.0)
    for x, y in ((Exponential(1), Exponential(1.0)), (Dirac(0.0), Dirac(-0.0))):
        for first, second in ((x, y), (y, x)):
            distributions._dominance_scales.cache_clear()
            fresh = repr(_dominance_t_max(second, other))
            _dominance_t_max(first, other)
            assert repr(_dominance_t_max(second, other)) == fresh
            assert repr(_dominance_t_max(first, second)) == repr(_dominance_t_max(second, first))


def test_scales_of_each_family():
    # (smallest rate or None, largest rate, support): the dominance grid reads
    # the first and last, the inductive engine's grid the middle one
    u, e = Uniform(0.5, 1.5), Exponential(2.0)
    assert _scales(Dirac(0.7)) == (None, 0.0, 0.7)
    assert _scales(e) == (2.0, 2.0, 0.5)
    assert _scales(u) == (None, 2.0, 1.5)
    assert _scales(PhaseType((1.0, 4.0))) == (1.0, 4.0, 1.25)
    assert _scales(Shifted(u, 2.0)) == (None, 2.0, 3.5)
    assert _scales(MinMaxCdf("min", (u, e))) == (2.0, 2.0, 1.5)
    assert _scales(MinMaxCdf("max", (u, Dirac(3.0)))) == (None, 2.0, 3.0)
    assert _scales(NumericConvolution((u, e))) == (2.0, 1.0, 2.0)
    assert _scales(NumericConvolution((u, Uniform(0.0, 1.0)))) == (None, 1.0, 2.5)
    assert _dominance_t_max(u, e) == 10.0
    assert _dominance_t_max(u, Dirac(0.2)) == 20.0


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(t_max=0.0)
    with pytest.raises(ValueError):
        GridSpec(t_max=1.0, points=1)
    ts = GridSpec(t_max=10.0, points=5).times()
    assert list(ts) == [2.0, 4.0, 6.0, 8.0, 10.0]


def test_grid_spec_is_the_even_faster_than_grid():
    """GridSpec holds t_max and points only, and defaults to the CLI's grid:
    5 even steps up to 10."""
    assert tuple(f.name for f in dataclasses.fields(GridSpec)) == ("t_max", "points")
    assert GridSpec().times().tobytes() == np.linspace(0, 10, 6)[1:].tobytes()


def test_dominance_grids_are_the_geometric_grid_spec_times():
    """_grid_times, and the 8192-point rescan grid of _grid_diffs, hold the bits of
    the linear/geometric mix GridSpec built for dominance, on seeded t_max."""
    rng = random.Random(2501)
    for _ in range(40):
        t_max = 10.0 ** rng.uniform(-6.0, 6.0)
        assert _grid_times(t_max, 512).tobytes() == reference_grid_times(t_max, 512).tobytes(), t_max
    for d1, d2 in [_random_law_pair(rng) for _ in range(12)] + [(Exponential(1), Dirac(0.0))]:
        ts = _grid_diffs(d1, d2, 8192)[0]
        assert ts.tobytes() == reference_grid_times(_dominance_t_max(d1, d2), 8192).tobytes(), (d1, d2)


def test_dominance_t_max_is_symmetric():
    """A pair's dominance grid does not depend on its order (_cdf_equal's one
    scan relies on it), on seeded pairs and on == laws with other bits."""
    rng = random.Random(2502)
    pairs = [_random_law_pair(rng, _random_phase_part) for _ in range(200)]
    pairs += [(Exponential(1), Exponential(1.0)), (Dirac(0.0), Dirac(-0.0)),
              (Uniform(0, 2), Uniform(-0.0, 2.0)), (Exponential(1), Uniform(0.0, 1.0))]
    for d1, d2 in pairs:
        assert repr(_dominance_t_max(d1, d2)) == repr(_dominance_t_max(d2, d1)), (d1, d2)


# --- atoms and intervals ----------------------------------------------------

def test_atom_mass_and_interval_measure():
    d = Dirac(0.5)
    assert atom_mass(d, 0.5) == 1.0
    assert measure_interval(d, 0.0, 0.5, closed_hi=True) == 1.0
    assert measure_interval(d, 0.0, 0.5, closed_hi=False) == 0.0
    assert measure_interval(d, 0.5, 2.0, closed_lo=True) == 1.0
    assert measure_interval(d, 0.5, 2.0, closed_lo=False) == 0.0
    s = Shifted(Uniform(0.0, 1.0), 0.0)  # degenerate shift keeps base behaviour
    assert measure_interval(Uniform(0.0, 1.0), 0.25, 0.75) == pytest.approx(0.5)


def test_interval_measure_takes_atoms_where_the_cdf_steps():
    """A min/max law with a Dirac part jumps where the Dirac sits, and a
    shifted atom where cdf_eval steps: a closed endpoint there takes the
    jump, an open one leaves it out."""
    hi = compose_residence("max", Dirac(1.0), Uniform(0.0, 2.0))
    assert atom_mass(hi, 1.0) == 0.5
    assert measure_interval(hi, 0.0, 1.0, closed_hi=False) == 0.5
    assert measure_interval(hi, 1.0, 1.0) == 0.5
    lo = compose_residence("min", Dirac(1.0), Exponential(1.0))
    assert isinstance(lo, MinMaxCdf)
    assert measure_interval(lo, 0.0, 1.0, closed_hi=False) == 0.0
    assert measure_interval(lo, 1.0, 1.0) == cdf_eval(Exponential(1.0), 1.0)
    shifted = Shifted(Dirac(0.3), 2.681)
    step = math.nextafter(0.3 + 2.681, math.inf)  # 0.3 + 2.681 rounds below the step
    assert cdf_eval(shifted, 0.3 + 2.681) == 0.0 and cdf_eval(shifted, step) == 1.0
    assert atom_mass(shifted, step) == 1.0 and atom_mass(Shifted(Dirac(0.5), 0.25), 0.75) == 1.0
    assert measure_interval(shifted, step, step) == 1.0
    assert measure_interval(shifted, 0.3 + 2.681, 5.0) == 1.0
    assert measure_interval(shifted, 0.0, step, closed_hi=False) == 0.0


def test_shifted_point_is_the_least_float_past_the_shift():
    # x + shift rounds to either side of the least y with y - shift >= x;
    # y - shift is nondecreasing in y, so a scan up from 8 floats below
    # x + shift finds it
    rng = random.Random(586)
    moved = {-1: 0, 1: 0}
    for _ in range(20000):
        x, shift = rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)
        y = x + shift
        for _ in range(8):
            y = math.nextafter(y, -math.inf)
        assert y - shift < x
        while y - shift < x:
            y = math.nextafter(y, math.inf)
        assert _shifted_point(x, shift) == y
        if y != x + shift:
            moved[1 if y > x + shift else -1] += 1
    assert moved[-1] > 100 and moved[1] > 100  # both of its loops run


def test_convolution_atoms_are_sums_of_the_factors_atoms():
    m = compose_residence("max", Dirac(1), Uniform(0, 2))
    c = convolve(m, m)
    assert isinstance(c, NumericConvolution)
    assert atom_mass(c, 2.0) == 0.25
    assert measure_interval(c, 2, 2) == 0.25
    assert measure_interval(c, 0, 2, closed_hi=False) == 0.75
    # each atom sits where cdf_eval steps, also where x + y rounds below it
    for law in (convolve(c, m), convolve(compose_residence("max", Dirac(0.3), Uniform(0.0, 1.0)),
                                         compose_residence("min", Dirac(2.681), Exponential(1.0)))):
        assert _jumps(law)
        for x, mass in _jumps(law):
            assert cdf_eval(law, x) - cdf_eval(law, math.nextafter(x, -math.inf)) == pytest.approx(mass, abs=1e-9)


def test_pdf_vec_rejects_laws_without_density():
    for d in (Dirac(1.0), NumericConvolution((Uniform(0.0, 1.0), Shifted(Exponential(1.0), 0.5)))):
        for ts in ([0.5, 2.0], []):
            with pytest.raises(TypeError, match="no density"):
                pdf_vec(d, ts)


def test_phase_type_single_rate_normalizes():
    assert phase_type([2.0]) == Exponential(2.0)
    assert phase_type([2.0, 1.0]) == PhaseType((1.0, 2.0))


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        Uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        Dirac(-0.1)
    with pytest.raises(ValueError):
        PhaseType(())
    with pytest.raises(ValueError):
        compose_residence("plus", Exponential(1.0), Exponential(2.0))
