"""Cylinder probability engines and their cross-checks."""

import itertools
import math
import random

import pytest

from smdpcheck import corpus, cylinders
from smdpcheck.cylinders import (
    Interval,
    RectCylinder,
    RectStep,
    TimeBoundedCylinder,
    class_law,
    initial_level,
    level_masses,
    prob_cylinder_inductive,
    prob_cylinder_paths,
    prob_rect_cylinder,
    trace_probability,
    word_classes,
    word_terms,
)
from smdpcheck.distributions import (
    Dirac,
    Exponential,
    MinMaxCdf,
    PhaseType,
    Shifted,
    Uniform,
    _jumps,
    cdf_eval,
    convolve_power,
)
from smdpcheck.errors import UnknownLabel, UnknownState
from smdpcheck.model import Scheduler, Smdp, dirac_scheduler, uniform_scheduler
from tests_support import (
    oracle_word_terms,
    random_context_composite,
    random_two_label_model,
    reference_prob_cylinder_inductive,
)

T_SATURATE = 1e6


@pytest.fixture(scope="module")
def fig2_U():
    return corpus.load("fig2_U.smdp")


@pytest.fixture(scope="module")
def fig2_V():
    return corpus.load("fig2_V.smdp")


@pytest.fixture(scope="module")
def fig3_V():
    return corpus.load("fig3_V.smdp")


def all_states_step(m, label, iv):
    return RectStep(frozenset([label]), (iv,), frozenset(m.states))


# --- rectangular cylinders ----------------------------------------------------

def test_rect_one_step_is_residence_mass(fig2_U):
    sch = dirac_scheduler(fig2_U, "a")
    c = RectCylinder((all_states_step(fig2_U, "a", Interval.upto(1.5)),))
    assert prob_rect_cylinder(fig2_U, sch, "u0", c) == pytest.approx(
        cdf_eval(Exponential(2.0), 1.5))


def test_rect_empty_label_set_gives_zero(fig2_U):
    sch = dirac_scheduler(fig2_U, "a")
    c = RectCylinder((RectStep(frozenset(), (Interval.upto(1.0),), frozenset(fig2_U.states)),))
    assert prob_rect_cylinder(fig2_U, sch, "u0", c) == 0.0


def test_rect_two_full_steps_saturate(fig2_U):
    sch = dirac_scheduler(fig2_U, "a")
    c = RectCylinder((
        all_states_step(fig2_U, "a", Interval.unbounded()),
        all_states_step(fig2_U, "a", Interval.unbounded()),
    ))
    assert prob_rect_cylinder(fig2_U, sch, "u0", c) == pytest.approx(1.0, abs=1e-12)


def test_rect_state_restriction():
    m = corpus.load("branchy.smdp")
    sch = uniform_scheduler(m)
    c = RectCylinder((RectStep(frozenset(["a"]), (Interval.unbounded(),), frozenset(["s1"])),))
    # label a carries weight 1/2; tau(s0,a)(s1) = 1/2
    assert prob_rect_cylinder(m, sch, "s0", c) == pytest.approx(0.25)


def test_rect_atom_boundary_semantics():
    m = corpus.load("branchy.smdp")
    sch = Scheduler({s: {"b": 1.0} for s in m.states})
    # s2 has residence dirac(0.5); a closed endpoint captures the atom
    closed = RectCylinder((RectStep(frozenset(["b"]), (Interval(0.0, 0.5),), frozenset(m.states)),))
    opened = RectCylinder((RectStep(frozenset(["b"]), (Interval(0.0, 0.5, closed_hi=False),),
                                    frozenset(m.states)),))
    assert prob_rect_cylinder(m, sch, "s2", closed) == pytest.approx(1.0)
    assert prob_rect_cylinder(m, sch, "s2", opened) == 0.0


def test_rect_unknown_refs_raise(fig2_U):
    sch = dirac_scheduler(fig2_U, "a")
    with pytest.raises(UnknownState):
        prob_rect_cylinder(fig2_U, sch, "u0", RectCylinder((
            RectStep(frozenset(["a"]), (Interval.upto(1.0),), frozenset(["phantom"])),)))
    with pytest.raises(UnknownLabel):
        prob_rect_cylinder(fig2_U, sch, "u0", RectCylinder((
            RectStep(frozenset(["z"]), (Interval.upto(1.0),), frozenset(fig2_U.states)),)))


# --- path engine ---------------------------------------------------------------

def test_single_step_is_residence_cdf(fig2_U):
    sch = dirac_scheduler(fig2_U, "a")
    for t in (0.25, 1.0, 4.0):
        assert prob_cylinder_paths(fig2_U, sch, "u0", TimeBoundedCylinder(("a",), t)) == \
            pytest.approx(cdf_eval(Exponential(2.0), t), abs=1e-12)


def test_word_power_matches_convolution(fig2_U):
    # length-n words on the chain follow the convolution of the first n residences
    sch = dirac_scheduler(fig2_U, "a")
    for n, t in ((2, 2.0), (3, 1.0), (5, 4.0)):
        rates = [2.0, 0.5] + [1.0] * (n - 2)
        expect = cdf_eval(PhaseType(tuple(rates)), t)
        got = prob_cylinder_paths(fig2_U, sch, "u0", TimeBoundedCylinder(("a",) * n, t))
        assert got == pytest.approx(expect, abs=1e-12)


def test_fig3_half_adversary_halves(fig3_V):
    sch = corpus.load_scheduler("fig3_V_half.sched")
    for n in (2, 3, 4):
        for t in (0.5, 2.0):
            got = prob_cylinder_paths(fig3_V, sch, "v0", TimeBoundedCylinder(("a",) * n, t))
            expect = 0.5 * cdf_eval(convolve_power(Exponential(1.0), n), t)
            assert got == pytest.approx(expect, abs=1e-12)


def test_fig2_swap_identity(fig2_U, fig2_V):
    # swapping the first two residences leaves every a^n probability unchanged
    su = dirac_scheduler(fig2_U, "a")
    sv = dirac_scheduler(fig2_V, "a")
    for n in range(2, 7):
        for t in (0.5, 1.0, 2.0, 5.0):
            pu = prob_cylinder_paths(fig2_U, su, "u0", TimeBoundedCylinder(("a",) * n, t))
            pv = prob_cylinder_paths(fig2_V, sv, "v0", TimeBoundedCylinder(("a",) * n, t))
            assert abs(pu - pv) <= 1e-9


def test_monotone_in_t_and_word_extension(fig2_U):
    sch = dirac_scheduler(fig2_U, "a")
    ts = [0.1, 0.5, 1.0, 2.0, 4.0, 8.0]
    vals = [prob_cylinder_paths(fig2_U, sch, "u0", TimeBoundedCylinder(("a", "a"), t))
            for t in ts]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    for t in ts:
        shorter = prob_cylinder_paths(fig2_U, sch, "u0", TimeBoundedCylinder(("a",), t))
        longer = prob_cylinder_paths(fig2_U, sch, "u0", TimeBoundedCylinder(("a", "a"), t))
        assert longer <= shorter + 1e-12


def test_trace_probability(fig2_U, fig3_V):
    su = dirac_scheduler(fig2_U, "a")
    assert trace_probability(fig2_U, su, ("a",) * 5) == pytest.approx(1.0)
    q = 0.25
    sch = Scheduler({"v0": {"a": q, "b": 1 - q}, "v1": {"a": 1.0}, "v2": {"b": 1.0}})
    assert trace_probability(fig3_V, sch, ("a",) * 3) == pytest.approx(q)
    assert trace_probability(fig3_V, sch, ("b", "a")) == 0.0


def test_word_terms_match_path_enumeration():
    """The merged forward kernel agrees with brute-force path enumeration."""
    options = [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.3, 0.7)]
    for seed in range(30):
        rng = random.Random(seed)
        m = random_two_label_model(rng, live_initial=True)
        sch = Scheduler({s: dict(zip(m.labels, rng.choice(options))) for s in m.states})
        for _ in range(3):
            word = tuple(rng.choice(m.labels) for _ in range(rng.randint(1, 4)))
            got = word_terms(m, sch, m.initial, word)
            want = oracle_word_terms(m, sch, m.initial, word)
            assert set(got) == set(want), (seed, word)
            for law, weight in want.items():
                assert got[law] == pytest.approx(weight, rel=0, abs=1e-12), (seed, word, law)


def test_word_classes_merge_paths(monkeypatch):
    """2^16 paths of a branching ring collapse to a polynomial number of classes.
    At t = inf they meet at 6 states per step, and the rectangular recursion
    measures each (state, step) once."""
    states = [f"s{i}" for i in range(6)]
    residence = {s: Exponential((1.0, 2.0, 3.0)[i % 3]) for i, s in enumerate(states)}
    transitions = {(s, "a"): {states[(i + 1) % 6]: 0.5, states[(i + 2) % 6]: 0.5}
                   for i, s in enumerate(states)}
    m = Smdp(["a"], states, "s0", residence, transitions)
    word = ("a",) * 16
    classes = word_classes(m, "s0", word)
    assert len(classes) < 2000
    assert sum(classes.values()) == pytest.approx(1.0, abs=1e-12)
    calls = []
    measure = cylinders.measure_interval
    monkeypatch.setattr(cylinders, "measure_interval", lambda *args: calls.append(args) or measure(*args))
    got = prob_cylinder_inductive(m, uniform_scheduler(m), "s0", TimeBoundedCylinder(word, math.inf))
    assert len(calls) <= len(word) * len(states)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_prefix_extended_levels_match_word_classes():
    """Extending each word's level from its prefix's gives word_classes' classes in its
    order, with one law cache for all the words, as faster_than_bounded keeps it."""
    for seed in range(12):
        m = random_two_label_model(random.Random(seed), live_initial=True)
        walk, levels, laws = cylinders._Walk(m), {(): initial_level(m, m.initial)}, {}
        for n in range(1, 7):
            for word in itertools.product(m.labels, repeat=n):
                levels[word] = walk.extend(levels[word[:-1]], word[-1])
                got = [((class_law(m, counts, laws), counts), mass)
                       for counts, mass in level_masses(levels[word]).items()]
                assert got == list(word_classes(m, m.initial, word).items()), (seed, word)


def test_dirac_shifts_are_the_fsum_of_the_visit_counts():
    """A class's shift is the math.fsum of the Dirac points its visit counts imply,
    whatever the path order: (0.0 + 0.2) + 0.7 + 0.1 is 0.9999999999999999 and
    (0.0 + 0.7) + 0.1 + 0.2 is 1.0, but both paths have the one law Dirac(1.0).
    Each class holds one law, at the fsum of every oracle path's points, and the
    weights of the oracle's path-order laws land on the class laws next to them."""
    states = ["x", "y", "z"]
    m = Smdp(["a"], states, "x", {"x": Dirac(0.1), "y": Dirac(0.2), "z": Dirac(0.7)},
             {(s, "a"): {t: 0.5 for t in states if t != s} for s in states})
    sch = uniform_scheduler(m)
    moved = 0
    for start in states:
        for n in range(1, 7):
            word = ("a",) * n
            laws = {}
            for law, counts in word_classes(m, start, word):
                assert counts not in laws, (start, n, counts)
                laws[counts] = law
            for rest in itertools.product(states, repeat=n):
                path = (start,) + rest
                if all(m.succ(s, "a").get(s2, 0.0) > 0.0 for s, s2 in zip(path, rest)):
                    counts = tuple(path[:-1].count(s) for s in states)
                    points = [m.residence_of(s).point for s in path[:-1]]
                    assert laws[counts] == Dirac(math.fsum(points)), (start, path)
            got, want = word_terms(m, sch, start, word), oracle_word_terms(m, sch, start, word)
            near = {}
            for law, weight in want.items():
                (mine,) = [g for g in got if abs(g.point - law.point) <= 1e-12]
                near[mine] = near.get(mine, 0.0) + weight
                moved += law not in got
            assert near.keys() == got.keys(), (start, n)
            for law, weight in near.items():
                assert got[law] == pytest.approx(weight, rel=1e-12), (start, n, law)
    assert moved > 0  # some path-order sums are not the fsum


# --- inductive engine ------------------------------------------------------------

def test_inductive_matches_paths_fig2(fig2_U):
    sch = dirac_scheduler(fig2_U, "a")
    c = TimeBoundedCylinder(("a", "a"), 2.0)
    p = prob_cylinder_paths(fig2_U, sch, "u0", c)
    i = prob_cylinder_inductive(fig2_U, sch, "u0", c)
    assert abs(p - i) <= 1e-5


def test_inductive_base_case_matches_definition(fig2_U):
    sch = dirac_scheduler(fig2_U, "a")
    for t in (0.5, 3.0):
        got = prob_cylinder_inductive(fig2_U, sch, "u0", TimeBoundedCylinder(("a",), t))
        assert got == pytest.approx(cdf_eval(Exponential(2.0), t), abs=1e-7)


def test_inductive_zero_bound_with_continuous_residences(fig2_U):
    sch = dirac_scheduler(fig2_U, "a")
    assert prob_cylinder_inductive(fig2_U, sch, "u0", TimeBoundedCylinder(("a", "a"), 0.0)) == 0.0


def test_inductive_at_infinite_and_huge_bounds():
    """t = 0 and t = inf take the rectangular recursion, every step's residence in
    [0, t], and agree with the paths engine to 1e-12: on the corpus, and on seeded
    three-label models with Dirac(0.0) residences under schedulers whose weights
    are not powers of two.  t = 1e308 caps the grid before its size could overflow."""
    cases = []
    for name in corpus.names():
        if name.endswith(".smdp"):
            m = corpus.load(name)
            cases += [(name, m, uniform_scheduler(m), word, t)
                      for word in itertools.product(m.labels, repeat=2) for t in (0.0, float("inf"), 1e308)]
    rng = random.Random(30)
    for seed in range(20):
        m = random_two_label_model(rng, n_max=4, labels=("a", "b", "c"))
        m = Smdp(m.labels, m.states, m.initial, {s: Dirac(0.0) if rng.random() < 0.6 else law
                                                 for s, law in m.residence.items()}, m.transitions)
        weights = {s: [rng.uniform(0.1, 1.0) for _ in m.labels] for s in m.states}
        sch = Scheduler({s: {a: w / sum(ws) for a, w in zip(m.labels, ws)} for s, ws in weights.items()})
        cases += [(seed, m, sch, word, t) for n in (1, 2, 3)
                  for word in itertools.product(m.labels, repeat=n) for t in (0.0, float("inf"))]
    nonzero = 0
    for case, m, sch, word, t in cases:
        c = TimeBoundedCylinder(word, t)
        got = prob_cylinder_inductive(m, sch, m.initial, c)
        paths = prob_cylinder_paths(m, sch, m.initial, c)
        tol = 1e-5 if t == 1e308 else 1e-12
        assert got == pytest.approx(paths, abs=tol), (case, word, t)
        if t != 1e308:
            rect = RectCylinder([RectStep({a}, (Interval.upto(t),), m.states) for a in word])
            assert got == prob_rect_cylinder(m, sch, m.initial, rect), (case, word, t)
            nonzero += t == 0.0 and got > 0.0
    assert nonzero > 0  # some words end at t = 0 with mass


def _palette_model(rng, n_states, n_laws):
    """One-label model whose residences come from a palette of `n_laws` laws:
    exponential, Dirac, uniform, phase-type, shifted and min-composite ones."""
    palette = [Exponential(round(rng.uniform(0.5, 3.0), 2)),
               Dirac(round(rng.uniform(0.05, 0.4), 2)),
               Uniform(0.1, round(rng.uniform(0.6, 1.5), 2)),
               PhaseType((1.5, round(rng.uniform(0.5, 3.0), 2))),
               Shifted(Exponential(round(rng.uniform(0.5, 3.0), 2)), round(rng.uniform(0.05, 0.3), 2)),
               MinMaxCdf("min", (Exponential(round(rng.uniform(0.5, 2.0), 2)), Uniform(0.2, 1.2)))]
    laws = rng.sample(palette, n_laws)
    names = [f"s{i}" for i in range(n_states)]
    residence = {s: rng.choice(laws) for s in names}
    trans = {}
    for s in names:
        targets = rng.sample(names, rng.randint(1, 2))
        trans[(s, "a")] = {x: round(rng.choice([0.6, 0.8, 1.0]) / len(targets), 6) for x in targets}
    return Smdp(["a"], names, names[0], residence, trans)


def test_inductive_matches_product_integration_reference(monkeypatch):
    """The engine against the same product-integration rule with one direct
    np.convolve per state and level, to 1e-12, and against the paths engine
    to 1e-5 on the default grid for words of up to 3 letters.

    The laws cover every residence branch; Dirac ends carry atoms through
    Dirac and shifted levels into atom terms.  Grids of 24 and 48 points
    make cells wider than the uniform and Dirac features, and 16384 points
    make the transforms long.
    """
    rng = random.Random(8100)
    cases = 0
    sized = cylinders._grid_points
    monkeypatch.setattr(cylinders, "_grid_points", lambda m, t: grid_points or sized(m, t))
    for seed in range(16):
        m = _palette_model(rng, rng.randint(3, 7), rng.randint(3, 6))
        sch = uniform_scheduler(m)
        for length, grid_points in ((2 + seed % 4, None), (3, (24, 48, 512)[seed % 3])):
            c = TimeBoundedCylinder(("a",) * length, round(rng.uniform(1.0, 4.0), 2))
            got = prob_cylinder_inductive(m, sch, m.initial, c)
            want = reference_prob_cylinder_inductive(m, sch, m.initial, c, grid_points=grid_points)
            assert abs(got - want) <= 1e-12, (seed, m.residence, c, grid_points, got, want)
            if grid_points is None and length <= 3:  # longer words are slow numeric convolutions
                paths = prob_cylinder_paths(m, sch, m.initial, c)
                assert abs(got - paths) <= 1e-5, (seed, m.residence, c, got, paths)
            cases += got > 0.0
    assert cases >= 24
    m = Smdp(["a"], ["s0", "s1", "s2", "s3"], "s0",
             {"s0": Exponential(1.3), "s1": Uniform(0.1, 0.9),
              "s2": Shifted(Exponential(2.1), 0.15), "s3": Dirac(0.25)},
             {("s0", "a"): {"s1": 0.5, "s2": 0.5}, ("s1", "a"): {"s0": 0.4, "s3": 0.6},
              ("s2", "a"): {"s1": 0.7, "s3": 0.3}, ("s3", "a"): {"s0": 1.0}})
    c = TimeBoundedCylinder(("a",) * 4, 3.0)
    sch = uniform_scheduler(m)
    grid_points = 16384  # what the patched _grid_points returns
    got = prob_cylinder_inductive(m, sch, "s0", c)
    assert abs(got - reference_prob_cylinder_inductive(m, sch, "s0", c, grid_points=16384)) <= 1e-12
    assert abs(got - prob_cylinder_paths(m, sch, "s0", c)) <= 1e-5


def test_inductive_builds_one_kernel_per_law(monkeypatch):
    """A deep-paths-like model (exp(r), exp(3r), Dirac(1/r) over 8 states, a
    10-letter word): one product-integration kernel per continuous law and
    grid in a call, where one per level would build 9; Dirac residences
    shift and build none."""
    r = 0.8
    palette = (Exponential(r), Exponential(3 * r), Dirac(round(1 / r, 3)))
    rng = random.Random(8200)
    names = [f"s{i}" for i in range(8)]
    trans = {}
    for s in names:
        t1, t2 = rng.sample(names, 2)
        p = rng.choice((0.3, 0.5, 0.7))
        trans[(s, "a")] = {t1: p, t2: round(1.0 - p, 6)}
    m = Smdp(["a"], names, "s0", {s: palette[i % 3] for i, s in enumerate(names)}, trans)
    calls = []
    kernel = cylinders._kernel

    def counting_kernel(d, xs):
        calls.append((d, len(xs)))
        return kernel(d, xs)

    monkeypatch.setattr(cylinders, "_kernel", counting_kernel)
    c = TimeBoundedCylinder(("a",) * 10, 10 * (1 / r + 1 / (3 * r) + 1 / r) / 3)
    for grid_points in (2048, 4096):
        calls.clear()
        monkeypatch.setattr(cylinders, "_grid_points", lambda m, t: grid_points)
        p = prob_cylinder_inductive(m, uniform_scheduler(m), "s0", c)
        assert 0.0 < p < 1.0
        # the exp(3r) states are reached only at the last level, which takes no kernel
        assert calls == [(Exponential(r), grid_points + 1)], calls


def test_cross_engine_on_corpus():
    """paths vs inductive within 1e-5 on every corpus model, and on branchy
    under a scheduler that gives s2, reached by the first a, no weight on a."""
    cases = []
    for name in corpus.names():
        if name.endswith(".smdp"):
            m = corpus.load(name)
            cases.append((name, m, uniform_scheduler(m), [w for n in (1, 2, 3) for w in _words(m.labels, n)][:6]))
    never_a = Scheduler({"s0": {"a": 1.0}, "s1": {"a": 1.0}, "s2": {"b": 1.0}})
    cases.append(("branchy.smdp", corpus.load("branchy.smdp"), never_a, [("a", "a", "a")]))
    for name, m, sch, words in cases:
        for w in words:
            if trace_probability(m, sch, w) <= 0.0:
                continue
            for t in (0.5, 1.0, 2.0, 5.0):
                c = TimeBoundedCylinder(w, t)
                p = prob_cylinder_paths(m, sch, m.initial, c)
                i = prob_cylinder_inductive(m, sch, m.initial, c)
                assert abs(p - i) <= 1e-5, (name, w, t, p, i)


def test_cross_engine_on_min_max_composites():
    """paths vs inductive within 1e-5 on seeded min/max composites of an
    exponential chain with Dirac, uniform and exponential contexts, for
    words of 2 and 3 letters: Dirac parts put atoms into min/max laws, and
    uniform parts put kinks into the densities."""
    worst = {}
    for kind in ("dirac", "uniform", "exp"):
        rng = random.Random(8300)
        for _ in range(10):
            for op in ("min", "max"):
                m, mean = random_context_composite(rng, kind, op)
                sch = uniform_scheduler(m)
                for n in (2, 3):
                    c = TimeBoundedCylinder(("a",) * n, round(n * mean, 2))
                    gap = abs(prob_cylinder_paths(m, sch, m.initial, c)
                              - prob_cylinder_inductive(m, sch, m.initial, c))
                    assert gap <= 1e-5, (kind, op, m.residence, c, gap)
                    worst[kind] = max(worst.get(kind, 0.0), gap)
    assert len(worst) == 3


def test_dirac_knife_edge_agrees_on_both_engines():
    """0.1 + 0.2 + 0.7 is 1.0 in exact arithmetic rounded once, though adding
    from the end gives 0.9999999999999999: at that t neither engine counts the
    path of x, y, z nor that of x, z, y as arrived."""
    states = ["x", "y", "z"]
    m = Smdp(["a"], states, "x", {"x": Dirac(0.1), "y": Dirac(0.2), "z": Dirac(0.7)},
             {("x", "a"): {"y": 0.5, "z": 0.5}, ("y", "a"): {"z": 1.0}, ("z", "a"): {"y": 1.0}})
    sch = uniform_scheduler(m)
    c = TimeBoundedCylinder(("a",) * 3, 0.9999999999999999)
    assert prob_cylinder_paths(m, sch, "x", c) == prob_cylinder_inductive(m, sch, "x", c) == 0.0
    c = TimeBoundedCylinder(("a",) * 3, 1.0)
    assert prob_cylinder_paths(m, sch, "x", c) == prob_cylinder_inductive(m, sch, "x", c) == 1.0


def test_dirac_sums_on_t_agree_on_both_engines():
    """Seeded one-label models with Dirac residences only, at a bound t equal to
    the fsum of a random path's points and at the floats on either side of it:
    both engines place every path at the same float, so they agree to 1e-12."""
    cases = 0
    for seed in range(150):
        rng = random.Random(8400 + seed)
        names = [f"s{i}" for i in range(rng.randint(2, 4))]
        residence = {s: Dirac(round(rng.uniform(0.05, 1.0), rng.choice((1, 2)))) for s in names}
        trans = {}
        for s in names:
            targets = rng.sample(names, rng.randint(1, 2))
            trans[(s, "a")] = {x: 1.0 / len(targets) for x in targets}
        m = Smdp(["a"], names, names[0], residence, trans)
        sch = uniform_scheduler(m)
        n = rng.randint(2, 5)
        path = [m.initial]
        for _ in range(n - 1):
            path.append(rng.choice(sorted(m.succ(path[-1], "a"))))
        t = math.fsum(residence[s].point for s in path)
        for bound in (math.nextafter(t, 0.0), t, math.nextafter(t, math.inf)):
            c = TimeBoundedCylinder(("a",) * n, bound)
            p, i = prob_cylinder_paths(m, sch, m.initial, c), prob_cylinder_inductive(m, sch, m.initial, c)
            assert abs(p - i) <= 1e-12, (seed, residence, trans, c, p, i)
            cases += 1
    assert cases == 450


def test_shifted_dirac_sums_on_t_agree_on_both_engines():
    """x dirac(a) -> y shift(dirac(b), c) -> x, word aa, at t = fsum(a, b, c) and one
    float either side: the word ends in y's residence, whose atom both engines place
    at the fsum of a, b and c, however b + c rounds (a = 0.1, b = 0.95, c = 0.9 gives
    1.95 at t = 1.95 on both).  A second shift around y's Dirac is summed the same way.
    Some of the cases put y's atom, taken as one float, off t."""
    rng = random.Random(5)
    apart = cases = 0
    for case in range(300):
        a, b, c, c2 = (round(rng.uniform(0.05, 1.0), rng.choice((1, 2))) for _ in range(4))
        y = Shifted(Dirac(b), c) if case % 2 else Shifted(Shifted(Dirac(b), c), c2)
        t = math.fsum((a, b, c) if case % 2 else (a, b, c, c2))
        m = Smdp(["a"], ["x", "y"], "x", {"x": Dirac(a), "y": y},
                 {("x", "a"): {"y": 1.0}, ("y", "a"): {"x": 1.0}})
        sch = uniform_scheduler(m)
        for bound in (math.nextafter(t, 0.0), t, math.nextafter(t, math.inf)):
            c_aa = TimeBoundedCylinder(("a", "a"), bound)
            p, i = prob_cylinder_paths(m, sch, "x", c_aa), prob_cylinder_inductive(m, sch, "x", c_aa)
            assert p == i == float(bound >= t), (a, y, c_aa, p, i)
            apart += math.fsum((a, _jumps(y)[0][0])) != t  # y's atom as one float: off t
            cases += 1
    assert cases == 900 and apart > 0


def _words(labels, n):
    if n == 0:
        return [()]
    return [w + (a,) for w in _words(labels, n - 1) for a in labels]


def test_saturation_consistency():
    """At a huge bound the word probability meets the untimed rect recursion."""
    schedulers = {
        "fig3_V.smdp": [corpus.load_scheduler("fig3_V_half.sched")],
        "fig2_U.smdp": [corpus.load_scheduler("fig2_all_a.sched")],
    }
    for name in corpus.names():
        if not name.endswith(".smdp"):
            continue
        m = corpus.load(name)
        for sch in [uniform_scheduler(m)] + schedulers.get(name, []):
            for n in (1, 2, 3, 4):
                for w in _words(m.labels, n)[:4]:
                    timed = prob_cylinder_paths(m, sch, m.initial,
                                                TimeBoundedCylinder(w, T_SATURATE))
                    steps = tuple(all_states_step(m, a, Interval.unbounded()) for a in w)
                    rect = prob_rect_cylinder(m, sch, m.initial, RectCylinder(steps))
                    assert abs(timed - rect) <= 1e-9, (name, w)


def test_cylinder_validation():
    with pytest.raises(ValueError):
        TimeBoundedCylinder((), 1.0)
    with pytest.raises(ValueError):
        TimeBoundedCylinder(("a",), -1.0)
    with pytest.raises(ValueError):
        RectStep(frozenset(["a"]), (Interval(0.0, 2.0), Interval(1.0, 3.0)), frozenset())
