"""Faster-than checking, simulation, bisimulation."""

import dataclasses
import importlib.util
import itertools
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from smdpcheck import corpus, distributions, relations
from smdpcheck.composition import compose
from smdpcheck.cylinders import TimeBoundedCylinder, prob_cylinder_paths, word_classes
from smdpcheck.model import Scheduler, Smdp, parse_model, uniform_scheduler
from smdpcheck.distributions import Exponential, GridSpec, PhaseType, Uniform, cdf_table, cdf_vec, dominates
from smdpcheck.errors import LabelMismatch
from smdpcheck.relations import (
    _SLACK,
    SchedulerSearchSpec,
    _ascend,
    _refute,
    _Stack,
    _word_tables,
    _scheduler_products,
    _simplex_options,
    _weight_function_exists,
    bisimilar,
    equally_fast_bounded,
    faster_than_bounded,
    simulates,
)
from tests_support import (
    _positive_words,
    oracle_path_laws,
    oracle_word_terms,
    random_two_label_model,
    reference_ascend,
    reference_bisimilar,
    reference_faster_than,
    reference_simulates,
    reference_weight_function_exists,
)


@pytest.fixture(scope="module")
def U():
    return corpus.load("fig2_U.smdp")


@pytest.fixture(scope="module")
def V():
    return corpus.load("fig2_V.smdp")


@pytest.fixture(scope="module")
def U3():
    return corpus.load("fig3_U.smdp")


@pytest.fixture(scope="module")
def V3():
    return corpus.load("fig3_V.smdp")


def recheck_witness(u, v, w):
    """Recomputing both probabilities must reproduce the reported violation."""
    word = tuple(w.word)
    slow = prob_cylinder_paths(v, w.slow_scheduler, v.initial, TimeBoundedCylinder(word, w.t))
    fast = prob_cylinder_paths(u, w.fast_scheduler, u.initial, TimeBoundedCylinder(word, w.t))
    assert slow == pytest.approx(w.prob_slow, abs=1e-12)
    assert fast == pytest.approx(w.prob_fast, abs=1e-12)
    assert fast < slow - 1e-9


# --- faster-than ---------------------------------------------------------------

def test_fig2_not_refuted(U, V):
    verdict = faster_than_bounded(U, V, depth=13)
    assert verdict.outcome == "NotRefuted"
    assert verdict.depth == 13


def test_fig3_refuted_with_mixed_adversary(U3, V3):
    verdict = faster_than_bounded(U3, V3, depth=8, search=SchedulerSearchSpec(step=0.5))
    assert verdict.refuted
    w = verdict.witness
    assert w.slow_scheduler.choice["v0"] == {"a": 0.5, "b": 0.5}
    recheck_witness(U3, V3, w)


def test_fig3_refuted_at_depth_two(U3, V3):
    verdict = faster_than_bounded(U3, V3, depth=2, search=SchedulerSearchSpec(step=0.5))
    assert verdict.refuted
    assert len(verdict.witness.word) <= 2
    recheck_witness(U3, V3, verdict.witness)


def test_reflexivity_not_refuted(U, V3):
    for m in (U, V3):
        verdict = faster_than_bounded(m, m, depth=4, search=SchedulerSearchSpec(step=0.5))
        assert verdict.outcome == "NotRefuted"


def test_reflexivity_on_awkward_models():
    # subdistribution rows and non-exponential residences
    for name in ("branchy.smdp", "uniform_chain.smdp"):
        m = corpus.load(name)
        verdict = faster_than_bounded(m, m, depth=3, search=SchedulerSearchSpec(step=0.5))
        assert verdict.outcome == "NotRefuted", name


def test_anomaly_composites_refuted():
    U = corpus.load("fig2_U.smdp")
    V = corpus.load("fig2_V.smdp")
    for wname, op in (("fig4_W_product.smdp", "prodrate"),
                      ("fig4_W_minimum.smdp", "min"),
                      ("fig4_W_maximum.smdp", "max")):
        W = corpus.load(wname)
        UW = compose(U, W, op)
        VW = compose(V, W, op)
        verdict = faster_than_bounded(UW, VW, depth=13)
        assert verdict.refuted, wname
        w = verdict.witness
        assert w.word == "aa"
        assert w.t == pytest.approx(2.0)
        recheck_witness(UW, VW, w)


def test_equally_fast(U, V, U3, V3):
    both = equally_fast_bounded(U, U, depth=4)
    assert both[0].outcome == both[1].outcome == "NotRefuted"
    pair = equally_fast_bounded(U3, V3, depth=4, search=SchedulerSearchSpec(step=0.5))
    assert any(v.refuted for v in pair)


def test_identical_chains_equally_fast():
    # same process with renamed states: both directions survive
    a = corpus.load("fig2_U.smdp")
    b = Smdp(["a"], ["x0", "x1", "x2"], "x0",
             {"x0": Exponential(2.0), "x1": Exponential(0.5), "x2": Exponential(1.0)},
             {("x0", "a"): {"x1": 1.0}, ("x1", "a"): {"x2": 1.0}, ("x2", "a"): {"x2": 1.0}})
    pair = equally_fast_bounded(a, b, depth=5)
    assert pair[0].outcome == pair[1].outcome == "NotRefuted"


def test_label_mismatch(U, U3):
    with pytest.raises(LabelMismatch):
        faster_than_bounded(U, U3, depth=2)


def test_depth_validation(U):
    with pytest.raises(ValueError):
        faster_than_bounded(U, U, depth=0)


def test_search_spec_validation(U3, V3, monkeypatch):
    for bad in ({"step": 0.0}, {"step": 1.5}):
        with pytest.raises(ValueError):
            SchedulerSearchSpec(**bad)
    monkeypatch.setattr(relations, "_MAX_CANDIDATES", 1)
    one = SchedulerSearchSpec(step=0.5)
    assert faster_than_bounded(U3, V3, depth=2, search=one).candidates == 1


def test_search_spec_holds_the_step_only():
    """The lattice step is the one search bound a caller sets; the ascent's sweeps
    and step floor and the candidate cap are constants of the module."""
    assert tuple(f.name for f in dataclasses.fields(SchedulerSearchSpec)) == ("step",)


def test_adversary_lattice_guard():
    """A slow model with more than 10^6 adversaries raises, unless a state map
    proves the pair: the proof needs no adversary.  A 10-state model against
    itself is proved by the identity map, and reports the truncated candidate
    lattice; with a slower fast side there is no map, and the guard raises."""
    from smdpcheck.errors import SmdpcheckError

    names = [f"s{i}" for i in range(10)]

    def model(rate):
        return Smdp(["a", "b"], names, "s0", {s: Exponential(rate) for s in names},
                    {(s, "a"): {s: 1.0} for s in names})

    m = model(1.0)
    got = faster_than_bounded(m, m, depth=2)
    assert got.outcome == "NotRefuted"
    assert got.proof == (("s0", "s0", "HoldsAnalytic"),)
    assert (got.candidates, got.candidate_lattice, got.candidates_truncated) == (4096, 5 ** 10, True)
    with pytest.raises(SmdpcheckError):
        faster_than_bounded(model(0.5), m, depth=2)


def test_faster_than_matches_one_call_per_candidate_reference():
    """Stacked tables, the batched ascent and prefix-extended levels keep every bit.
    With three labels at step 0.5 no lattice option weights every label, so a word
    that reads all three at one state is positive under no adversary; such words
    change no verdict, and neither does a slow model that spells no word."""
    kinds = Counter()

    def check(u, v, depth, search, case):
        got = faster_than_bounded(u, v, depth, search=search)
        want = reference_faster_than(u, v, depth, search=search)
        assert got.outcome == want.outcome, case
        kind = want.witness.kind if want.refuted else want.outcome
        kinds[kind] += 1
        if want.refuted:
            g, w = got.witness, want.witness
            assert (g.kind, g.word, g.t, g.prob_fast, g.prob_slow) == (
                w.kind, w.word, w.t, w.prob_fast, w.prob_slow), case
            for mine, theirs, m in ((g.slow_scheduler, w.slow_scheduler, v),
                                    (g.fast_scheduler, w.fast_scheduler, u)):
                assert np.array_equal(mine.matrix(m), theirs.matrix(m)), case
        return kind

    for seed in range(9000, 9060):
        rng = random.Random(seed)
        u = random_two_label_model(rng, live_initial=True)
        v = random_two_label_model(rng, live_initial=True)
        check(u, v, 2 + seed % 3, SchedulerSearchSpec(step=(0.5, 0.25)[(seed // 3) % 2]), seed)
    assert kinds == {"per-cylinder-max": 46, "joint-best": 6, "NotRefuted": 8}

    labels, search = ("a", "b", "c"), SchedulerSearchSpec(step=0.5)
    options = _simplex_options(len(labels), search.step)
    assert all(min(w) == 0.0 for w in options)
    kinds.clear()
    unweighted = 0  # NotRefuted pairs whose slow model spells a word no adversary weights
    for seed in range(9100, 9115):
        rng = random.Random(seed)
        u = random_two_label_model(rng, n_max=2, live_initial=True, labels=labels)
        v = random_two_label_model(rng, n_max=2, live_initial=True, labels=labels)
        spelled = set(_positive_words(v, np.ones((len(v.states), len(labels))), 3))
        positive = {w for sigma in _scheduler_products(v, options) for w in _positive_words(v, sigma, 3)}
        for fast in (u, v):
            unweighted += check(fast, v, 3, search, seed) == "NotRefuted" and positive < spelled
    assert kinds == {"NotRefuted": 16, "per-cylinder-max": 12, "joint-best": 2} and unweighted == 6

    dead = Smdp(list(labels), ["r"], "r", {"r": Exponential(0.1)}, {})
    for seed in range(3):
        u = random_two_label_model(random.Random(seed), live_initial=True, labels=labels)
        assert check(u, dead, 3, search, seed) == "NotRefuted"
        assert check(dead, u, 2, search, seed) != "NotRefuted"


def test_stacked_tables_match_one_point_evaluation():
    """A batch over stacked words gives each (point, word) the bits of a lone one-word call."""
    rng = np.random.default_rng(5)
    for case in range(300):
        n_states, n_ts = int(rng.integers(1, 4)), int(rng.integers(1, 8))
        tables = []
        for _ in range(int(rng.integers(1, 6))):
            n = int(rng.integers(0, 40))  # spans of unequal lengths, empty ones too
            tables.append((rng.integers(0, 5, size=(n, 2 * n_states)), rng.random(n),
                           rng.random((n, n_ts))))
        xs = rng.dirichlet(np.ones(2), size=(int(rng.integers(1, 30)), n_states))
        want = np.array([[(np.prod(x.ravel()[None, :] ** E, axis=1) * coeff) @ F
                          for E, coeff, F in tables] for x in xs])
        assert np.array_equal(_Stack(tables).eval(xs), want), case


def test_grouped_stacks_match_one_word_evaluation(monkeypatch):
    """Words of equal class counts, empty ones too, share one batched product; each
    (point, word) still has the bits of a lone one-word call, for one point or many,
    with the power product in one chunk or in several."""
    rng = np.random.default_rng(29)
    grouped = 0
    for case in range(200):
        n_states, n_ts = int(rng.integers(1, 4)), int(rng.integers(1, 8))
        sizes = rng.choice([0, 1, 3, 8], size=int(rng.integers(1, 12)))
        sizes = np.append(sizes, sizes[0])  # one class count at least twice
        tables = [(rng.integers(0, 5, size=(n, 2 * n_states)), rng.random(n), rng.random((n, n_ts)))
                  for n in sizes]
        xs = rng.dirichlet(np.ones(2), size=((1, int(rng.integers(2, 40)))[case % 2], n_states))
        want = np.array([[(np.prod(x.ravel()[None, :] ** E, axis=1) * coeff) @ F
                          for E, coeff, F in tables] for x in xs])
        stack = _Stack(tables)
        grouped += len(stack.groups) < len(tables)
        for budget in (relations._EVAL_BUDGET, 1, 3 * stack.E.size + 1):  # rows of 1 and 3 points
            monkeypatch.setattr(relations, "_EVAL_BUDGET", budget)
            assert np.array_equal(stack.eval(xs), want), (case, budget)
    assert grouped == 200


def test_word_tables_match_word_classes():
    """Each word's table holds word_classes' classes of that word in their order:
    its visit counts, its masses, and the CDF row of its law, one row per == law
    of all the words of both sides."""
    ts = GridSpec().times()
    for seed in range(40):
        rng = random.Random(seed)
        labels = ("a", "b", "c")[:2 + seed % 2]
        u = random_two_label_model(rng, live_initial=True, labels=labels)
        v = random_two_label_model(rng, live_initial=True, labels=labels)
        depth = 1 + seed % 4
        words, fast, slow = _word_tables(u, v, depth, ts)
        assert words == [w for n in range(1, depth + 1) for w in itertools.product(labels, repeat=n)
                         if word_classes(v, v.initial, w)], seed
        classes = [[word_classes(m, m.initial, w) for w in words] for m in (u, v)]
        laws = list(dict.fromkeys(law for side in classes for cl in side for law, _ in cl))
        rows = dict(zip(laws, cdf_table(laws, ts)))
        for m, side, tables in zip((u, v), classes, (fast, slow)):
            for w, cl, (E, coeff, F) in zip(words, side, tables):
                assert np.array_equal(E, np.array([c for _, c in cl], dtype=np.int64).reshape(
                    -1, len(m.states) * len(labels))), (seed, w)
                assert np.array_equal(coeff, np.array(list(cl.values()), dtype=float)), (seed, w)
                assert np.array_equal(F, np.array([rows[law] for law, _ in cl]).reshape(-1, len(ts))), (seed, w)


def test_batched_ascent_takes_the_sequential_path(monkeypatch):
    """Same moves, same order, same ties as one objective call per move."""
    monkeypatch.setattr(relations, "_MIN_DELTA", 1e-2)
    rng = np.random.default_rng(11)
    for case in range(400):
        n_s, n_l = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        exps = rng.integers(0, 3, size=(int(rng.integers(1, 5)), n_s * n_l))
        exps[:, : n_l * int(rng.integers(0, n_s))] = 0  # states the objective ignores: plateaus
        coeff = rng.choice([0.5, 1.0, 2.0], size=len(exps))
        digits = int(rng.integers(1, 4))  # rounding makes more plateaus

        def batched(xs, exps=exps, coeff=coeff, digits=digits):
            flat = xs.reshape(len(xs), -1)
            return np.round((np.prod(flat[:, None, :] ** exps, axis=2) * coeff).sum(axis=1), digits)

        x0 = rng.dirichlet(np.ones(n_l), size=n_s).round(2)
        x0[:, -1] = 1.0 - x0[:, :-1].sum(axis=1)
        search = SchedulerSearchSpec(step=float(rng.choice([0.5, 0.25, 0.1])))
        x_ref, best_ref = reference_ascend(lambda x: batched(x[None])[0], x0, search)
        x, best = _ascend(batched, x0, batched(x0[None])[0], search.step)
        assert best == best_ref and np.array_equal(x, x_ref), case


def _bit_twins():
    """Two-label models whose laws are == in pairs but differ in bits: an int and
    a float rate, and uniform laws that start at 0.0 and at -0.0."""
    labels = ("a", "b")
    u = Smdp(labels, ["s0", "s1", "s2"], "s0",
             {"s0": Exponential(1), "s1": Uniform(0.0, 1.0), "s2": Uniform(-0.0, 1.0)},
             {(s, a): row for a in labels for s, row in (
                 ("s0", {"s1": 0.5, "s2": 0.5}), ("s1", {"s0": 1.0}), ("s2", {"s0": 1.0}))})
    v = Smdp(labels, ["r0", "r1"], "r0", {"r0": Exponential(1.0), "r1": Uniform(-0.0, 2)},
             {(s, a): {t: 1.0} for a in labels for s, t in (("r0", "r1"), ("r1", "r0"))})
    return u, v


# repr of the adversary loop's verdicts (u, v, 3) and (v, u, 3) on _bit_twins(), as computed
# when each level entry carried its path-order convolution
_TWIN_VERDICTS = (
    "FasterThanVerdict(outcome='NotRefuted', depth=3, grid=GridSpec(t_max=10.0, points=5), "
    "search=SchedulerSearchSpec(step=0.25), witness=None, candidates=125, candidate_lattice=125, "
    "candidates_truncated=False, proof=None)",
    "FasterThanVerdict(outcome='Refuted', depth=3, grid=GridSpec(t_max=10.0, points=5), "
    "search=SchedulerSearchSpec(step=0.25), witness=FtWitness(slow_scheduler=Scheduler(s0:0.5*a+0.5*b, "
    "s1:0.5*a+0.5*b, s2:0.5*a+0.5*b), word='aa', t=2.0, prob_fast=0.14191691040457655, "
    "prob_slow=0.19186396051629256, fast_scheduler=Scheduler(r0:0.5*a+0.5*b, r1:0.5*a+0.5*b), "
    "kind='joint-best'), candidates=25, candidate_lattice=25, candidates_truncated=False, proof=None)",
)
# the state map that proves u faster than v there, so that faster_than_bounded skips the loop
_TWIN_PROOF = (("s0", "r0", "HoldsAnalytic"), ("s1", "r1", "HoldsAnalytic"), ("s2", "r1", "HoldsAnalytic"))


def test_class_laws_keep_the_bits_of_equal_laws():
    """Class laws are == to the path-order convolutions of their paths, and hold their
    bits (reprs) wherever a class holds one of two == laws with other bits; a core
    cache keyed by == laws would hand one law's bits to its twin.  The adversary
    loop's verdicts are those of path-order convolution; faster_than_bounded proves
    (u, v) by a state map instead, and keeps the loop's verdict of (v, u)."""
    u, v = _bit_twins()
    seen = set()
    for m in (u, v):
        twins = [m.state_index(s) for s in ("s1", "s2") if s in m.states]
        for word in (w for n in (1, 2, 3, 4) for w in itertools.product(m.labels, repeat=n)):
            classes = word_classes(m, m.initial, word)
            assert set(law for law, _ in classes) == set(oracle_word_terms(m, uniform_scheduler(m), m.initial, word))
            for law, counts in oracle_path_laws(m, m.initial, word):
                (got,) = [c for c, n in classes if n == counts and c == law]
                if sum(any(counts[2 * si:2 * si + 2]) for si in twins) < 2:
                    assert repr(got) == repr(law), (word, law)
                    seen.add(repr(got))
    assert all(any(twin in text for text in seen) for twin in (
        "Uniform(lo=-0.0, hi=1.0)", "Uniform(lo=0.0, hi=1.0)", "Exponential(rate=1)", "Exponential(rate=1.0)"))
    loop = [_refute(fast, slow, 3, GridSpec(), SchedulerSearchSpec()) for fast, slow in ((u, v), (v, u))]
    assert tuple(map(repr, loop)) == _TWIN_VERDICTS
    assert repr(faster_than_bounded(u, v, 3)) == repr(dataclasses.replace(loop[0], proof=_TWIN_PROOF))
    assert repr(faster_than_bounded(v, u, 3)) == _TWIN_VERDICTS[1]


def test_ascent_is_skipped_for_matched_adversaries(monkeypatch):
    """_ascend runs only for adversaries that no lattice candidate matches at every
    (word, time), and the verdict stays the reference's."""
    rng = random.Random(51)
    u = random_two_label_model(rng, live_initial=True)
    v = random_two_label_model(rng, live_initial=True)
    search = SchedulerSearchSpec(step=0.5)
    events = []  # each adversary as the lattice yields it, then its ascents

    def products(m, options, limit=None):
        for sigma in _scheduler_products(m, options, limit):
            if m is v:
                events.append(sigma.copy())
            yield sigma

    def ascend(*args):
        events.append("ascend")
        return _ascend(*args)

    monkeypatch.setattr(relations, "_scheduler_products", products)
    monkeypatch.setattr(relations, "_ascend", ascend)
    got = faster_than_bounded(u, v, 2, search=search)
    monkeypatch.undo()
    want = reference_faster_than(u, v, 2, search=search)
    assert (got.outcome, got.witness) == (want.outcome, want.witness) == ("NotRefuted", None)

    ts = got.grid.times()
    candidates = [Scheduler.from_matrix(u, x) for x in
                  _scheduler_products(u, _simplex_options(len(u.labels), search.step))]

    def matched(sigma):
        words = list(_positive_words(v, sigma, 2))
        slow = Scheduler.from_matrix(v, sigma)
        return any(all(prob_cylinder_paths(u, x, u.initial, TimeBoundedCylinder(w, t))
                       >= prob_cylinder_paths(v, slow, v.initial, TimeBoundedCylinder(w, t)) - _SLACK
                       for w in words for t in ts) for x in candidates)

    adversaries = [i for i, e in enumerate(events) if not isinstance(e, str)]
    ascended = {i for i in adversaries if i + 1 < len(events) and isinstance(events[i + 1], str)}
    assert len(adversaries) == 27 and 0 < len(ascended) < len(adversaries)
    for i in adversaries:
        assert matched(events[i]) == (i not in ascended), events[i]


def test_candidates_are_evaluated_once_per_call(monkeypatch):
    """At step 0.25 over 6 states (4096 candidates), the adversary loop evaluates
    the candidates once, on every word v spells, although the adversaries'
    positive words form three word sets: all six words, then {b, bb}, then
    {a, aa}.  The 6-cycle lumps onto v's one state, so faster_than_bounded
    proves the pair without the loop."""
    labels = ("a", "b")
    names = [f"s{i}" for i in range(6)]
    u = Smdp(labels, names, "s0", {s: Exponential(50.0) for s in names},
             {(s, a): {names[(i + 1) % 6]: 1.0} for i, s in enumerate(names) for a in labels})
    v = Smdp(labels, ["r"], "r", {"r": Exponential(0.05)}, {("r", a): {"r": 1.0} for a in labels})
    search = SchedulerSearchSpec(step=0.25)
    evaluate = _Stack.eval
    shapes = []

    def eval_stack(self, X):
        out = evaluate(self, X)
        if len(X) == relations._MAX_CANDIDATES:
            shapes.append(out.shape)
        return out

    monkeypatch.setattr(_Stack, "eval", eval_stack)
    proved = faster_than_bounded(u, v, 2, search=search)
    assert proved.proof == tuple((s, "r", "HoldsAnalytic") for s in names) and not shapes
    verdict = _refute(u, v, 2, GridSpec(), search)
    assert verdict.outcome == "NotRefuted" and verdict.candidates == relations._MAX_CANDIDATES
    assert shapes == [(relations._MAX_CANDIDATES, 6, 5)]
    assert dataclasses.replace(verdict, proof=proved.proof) == proved
    word_sets = {tuple(_positive_words(v, sigma, 2))
                 for sigma in _scheduler_products(v, _simplex_options(2, search.step))}
    assert len(word_sets) == 3


def _perfbench_gen():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_eight_state_holds_pair_is_proved_past_the_candidate_cap():
    """An eight-state "holds" pair of the ft-sweep generator: its fast lattice
    (6,561 schedulers at step 0.5) passes the 4,096-candidate cap, and the cut
    lattice lacks the scheduler that matches the adversary at word aaab and
    t = 10.  The state map proves the pair for every depth and time."""
    fast, slow = _perfbench_gen().ft_pair(random.Random(8001), "holds", 8)
    u, v = parse_model(fast), parse_model(slow)
    verdict = faster_than_bounded(u, v, 4, search=SchedulerSearchSpec(step=0.5))
    assert verdict.outcome == "NotRefuted" and verdict.witness is None
    assert (verdict.candidates, verdict.candidate_lattice, verdict.candidates_truncated) == (4096, 6561, True)
    assert verdict.proof[0][:2] == ("u0", "v0")
    assert {pair[:2] for pair in verdict.proof} == {(f"u{i}", f"v{i}") for i in range(8)}
    _check_state_map(u, v, verdict.proof)


def _check_state_map(u, v, proof):
    """Re-verifies a proof from the definitions: h(u0) = v0, h maps every state
    reachable from u0, lumped masses are at least v's rows, and each pair's
    dominance outcome is that of `dominates` and holds on a 401-point scan."""
    h = {s: t for s, t, _ in proof}
    assert len(h) == len(proof) and proof[0][:2] == (u.initial, v.initial)
    for s in h:
        assert set(u.adjacent(s)) <= set(h), s
        for a in u.labels:
            lumped = Counter()
            for s2, p in u.succ(s, a).items():
                lumped[h[s2]] += p
            row = v.succ(h[s], a)
            assert all(lumped[t] >= row.get(t, 0.0) for t in v.states), (s, a)
    for s, t, outcome in proof:
        fast, slow = u.residence_of(s), v.residence_of(t)
        assert outcome in ("HoldsAnalytic", "HoldsOnGrid") and dominates(fast, slow).outcome == outcome
        ts = np.linspace(0.0, 40.0, 401)
        assert (cdf_vec(fast, ts) >= cdf_vec(slow, ts) - 1e-12).all(), (s, t)


def _split_faster(rng, v):
    """A model u that lumps onto v under a known map: each state of v gets one or
    two copies, each copy's rows split every mass of v's row over the copies of
    its target, and each copy's residence dominates its original's.  A copy of an
    Erlang-free two-stage state may be one exponential at least as fast as the
    slower stage, which no family rule decides."""
    copies = {t: [f"{t}c{k}" for k in range(rng.choice((1, 1, 2)))] for t in v.states}
    residence, trans = {}, {}
    for t in v.states:
        law = v.residence_of(t)
        for c in copies[t]:
            f = rng.choice((1.0, 1.5, 2.0))
            if isinstance(law, PhaseType):
                residence[c] = (Exponential(min(law.rates) * f) if rng.random() < 0.6
                                else PhaseType(tuple(r * f for r in law.rates)))
            else:
                residence[c] = Exponential(law.rate * f)
            for a in v.labels:
                row = {}
                for t2, p in v.succ(t, a).items():
                    share = rng.choice((0.5, 0.3)) if len(copies[t2]) == 2 else 1.0
                    row[copies[t2][0]] = p * share
                    if share < 1.0:
                        row[copies[t2][1]] = p - p * share
                if row:
                    trans[(c, a)] = row
    states = [c for t in v.states for c in copies[t]]
    return Smdp(v.labels, states, copies[v.initial][0], residence, trans)


def test_state_maps_are_sound_and_the_loop_agrees():
    """On seeded pairs built to lump, the search finds a map, every map passes an
    independent check, and the adversary loop, called directly on an untruncated
    lattice and 40 times, refutes none of the pairs.  On odd seeds v's rows are
    scaled by a factor in (0.5, 1), so u's lumped masses exceed v's."""
    outcomes, merged = Counter(), 0
    for seed in range(40):
        rng = random.Random(2600 + seed)
        v = random_two_label_model(rng, live_initial=True)
        v = Smdp(v.labels, v.states, v.initial,
                 {s: (PhaseType((d.rate, round(d.rate * rng.uniform(1.5, 3.0), 2)))
                      if rng.random() < 0.4 else d) for s, d in v.residence.items()},
                 v.transitions)
        u = _split_faster(rng, v)
        if seed % 2:  # u carries more mass: v deadlocks where u does not
            f = rng.uniform(0.5, 1.0)
            v = Smdp(v.labels, v.states, v.initial, v.residence,
                     {k: {t: p * f for t, p in row.items()} for k, row in v.transitions.items()})
        verdict = faster_than_bounded(u, v, 3, search=SchedulerSearchSpec(step=0.5))
        assert verdict.proof is not None, seed
        _check_state_map(u, v, verdict.proof)
        outcomes.update(outcome for _, _, outcome in verdict.proof)
        merged += len({t for _, t, _ in verdict.proof}) < len(verdict.proof)
        loop = _refute(u, v, 3, GridSpec(points=40), SchedulerSearchSpec(step=0.5))
        assert not loop.candidates_truncated and loop.outcome == "NotRefuted", seed
    assert outcomes["HoldsAnalytic"] > 0 and outcomes["HoldsOnGrid"] > 0 and merged > 0, (outcomes, merged)


def _two_state(prefix, rates, rows):
    """A two-state, two-label model with exponential residences; rows gives the
    masses on (state 0, state 1) of rows (0, a), (0, b), (1, a) and (1, b)."""
    names = [f"{prefix}0", f"{prefix}1"]
    keys = [(s, a) for s in names for a in ("a", "b")]
    return Smdp(["a", "b"], names, names[0], {s: Exponential(r) for s, r in zip(names, rates)},
                {k: dict(zip(names, row)) for k, row in zip(keys, rows)})


@pytest.mark.parametrize("seed, index, u, v", [
    (7, 83, _two_state("u", (2.5, 2.3), ((0.5, 0.5), (0.4, 0.4), (0.5, 0.5), (0.4, 0.4))),
     _two_state("v", (1.6, 2.3), ((0.42, 0.18), (0.3, 0.3), (0.3, 0.3), (0.3, 0.3)))),
    (5, 53, _two_state("u", (0.6, 2.8), ((0.4, 0.4), (0.3, 0.7), (0.7, 0.3), (0.7, 0.3))),
     _two_state("v", (0.4, 1.9), ((0.4, 0.4), (0.3, 0.7), (0.56, 0.24), (0.3, 0.3)))),
    (30, 8, _two_state("u", (1.4, 2.9), ((0.42, 0.18), (0.7, 0.3), (0.7, 0.3), (0.56, 0.24))),
     _two_state("v", (0.8, 1.5), ((0.42, 0.18), (0.56, 0.24), (0.3, 0.3), (0.56, 0.24)))),
], ids=["seed7-83", "seed5-53", "seed30-8"])
def test_state_map_where_u_carries_more_mass(seed, index, u, v):
    """ft-sweep "unrelated" pairs (seed, instance) whose fast rows carry more
    mass than the slow ones (1.0 and 0.8 against 0.6 at seed 7, instance 83):
    the identity map lumps u onto v, and every residence dominates its image's."""
    rng = random.Random(seed * 1_000_003 + index)  # perfbench's workloads._rng
    assert [parse_model(text) for text in _perfbench_gen().ft_pair(rng, "unrelated", 2)] == [u, v]
    verdict = faster_than_bounded(u, v, 4, search=SchedulerSearchSpec(step=0.5))
    assert verdict.outcome == "NotRefuted"
    assert verdict.proof == (("u0", "v0", "HoldsAnalytic"), ("u1", "v1", "HoldsAnalytic"))
    _check_state_map(u, v, verdict.proof)


def test_state_map_is_none_without_a_lumping():
    """fig2's swapped chain is faster than its reverse, but no state carries the
    speed-up, so no map exists; fig3 is Refuted, so it has none either."""
    U, V = corpus.load("fig2_U.smdp"), corpus.load("fig2_V.smdp")
    U3, V3 = corpus.load("fig3_U.smdp"), corpus.load("fig3_V.smdp")
    assert relations._state_map(U, V) is None and relations._state_map(U3, V3) is None
    assert faster_than_bounded(U, V, 3).proof is None
    assert relations._state_map(V3, U3) == (
        ("v0", "u0", "HoldsAnalytic"), ("v1", "u0", "HoldsAnalytic"), ("v2", "u0", "HoldsAnalytic"))


def test_state_map_search_gives_up_after_its_try_budget(monkeypatch):
    """Past _MAX_CANDIDATES candidate images the search returns None, and
    faster_than_bounded falls back to the adversary loop."""
    U3, V3 = corpus.load("fig3_U.smdp"), corpus.load("fig3_V.smdp")
    search = SchedulerSearchSpec(step=0.5)
    monkeypatch.setattr(relations, "_MAX_CANDIDATES", 2)
    assert relations._state_map(V3, U3) is None
    verdict = faster_than_bounded(V3, U3, 3, search=search)
    assert verdict.proof is None and verdict == _refute(V3, U3, 3, GridSpec(), search)
    monkeypatch.setattr(relations, "_MAX_CANDIDATES", 3)
    assert relations._state_map(V3, U3) is not None


def test_state_map_loses_no_mass_on_any_step():
    """A self-loop of mass 0.9999999996 rounds to the same 1e-9 quantum as one of
    mass 1.0, but it loses 4e-10 on every step, which adds up past _SLACK with
    depth: no map proves it, and the loop refutes it at depth 10.  The other way
    round, the full row covers the short one and the map proves it."""
    law = {"s": Exponential(1.0)}
    u = Smdp(["a"], ["s"], "s", law, {("s", "a"): {"s": 0.9999999996}})
    v = Smdp(["a"], ["s"], "s", law, {("s", "a"): {"s": 1.0}})
    assert relations._state_map(u, v) is None
    verdict = faster_than_bounded(u, v, 10, GridSpec(t_max=100.0))
    assert verdict.outcome == "Refuted" and verdict.proof is None
    recheck_witness(u, v, verdict.witness)
    assert faster_than_bounded(v, u, 10, GridSpec(t_max=100.0)).proof == (("s", "s", "HoldsAnalytic"),)


def _states_only(n_states, labels=("a", "b")):
    names = [f"s{i}" for i in range(n_states)]
    return Smdp(list(labels), names, names[0], {s: Exponential(1.0) for s in names}, {})


def test_untruncated_scheduler_products_are_the_full_lattice():
    for n_states, labels, step in ((1, "ab", 0.5), (3, "ab", 0.25), (2, "abc", 0.5), (4, "a", 0.5)):
        m = _states_only(n_states, labels)
        options = _simplex_options(len(labels), step)
        full = np.array(list(itertools.product(*[options] * n_states)), dtype=float)
        for limit in (None, len(full), len(full) + 1):
            got = np.array(list(_scheduler_products(m, options, limit)))
            assert got.shape == full.shape and np.array_equal(got, full), (n_states, labels, limit)


def test_truncated_scheduler_products_give_every_state_every_option():
    """Six two-label states at step 0.25: 4096 of 15625 schedulers, spread
    over the lattice so that the first state also gets the vertices."""
    options = _simplex_options(2, 0.25)
    kept = np.array(list(_scheduler_products(_states_only(6), options, 4096)))
    assert kept.shape == (4096, 6, 2)
    assert len({row.tobytes() for row in kept}) == 4096
    for j in range(6):
        assert {tuple(x) for x in kept[:, j]} == set(options), j
    assert (1.0, 0.0) in options and (0.0, 1.0) in options


def test_weight_function_exists_matches_sparse_max_flow():
    """The augmenting-path max-flow decides exactly what scipy's maximum_flow decided."""
    rng = random.Random(77)
    answers = Counter()
    for _ in range(5000):
        n1, n2 = rng.randint(2, 5), rng.randint(2, 5)
        units = rng.randint(max(n1, n2) + 1, 20)

        def row(prefix, n, total):  # n positive masses in twentieths summing to total/20
            cuts = [0] + sorted(rng.sample(range(1, total), n - 1)) + [total]
            return {f"{prefix}{i}": (b - a) / 20 for i, (a, b) in enumerate(zip(cuts, cuts[1:]))}

        row1 = row("x", n1, units)
        row2 = row("y", n2, units + rng.choice([0, 0, 0, 0, 1, -1]))
        density = rng.choice([0.3, 0.5, 0.7, 0.9])
        allowed = {(s, s2) for s in row1 for s2 in row2 if rng.random() < density}
        want = reference_weight_function_exists(row1, row2, allowed)
        assert _weight_function_exists(row1, row2, allowed) == want, (row1, row2, allowed)
        answers[want] += 1
    assert answers[True] > 1000 and answers[False] > 1000


# --- simulation ------------------------------------------------------------------

def test_fig3_simulation_holds(U3, V3):
    res = simulates(U3, V3)
    assert res.holds
    assert ("u0", "v0") in res.pairs


def test_fig2_simulation_fails(U, V):
    # the faster first state cannot be simulated by the slower one
    assert not simulates(U, V).holds


def test_self_simulation(U, V3):
    for m in (U, V3):
        res = simulates(m, m)
        assert res.holds
        assert all((s, s) in res.pairs for s in m.states)


def test_simulation_relation_closed_under_conditions(U3, V3):
    from smdpcheck.distributions import dominates
    from smdpcheck.relations import _weight_function_exists

    res = simulates(U3, V3)
    allowed = set(res.pairs)
    for (s1, s2) in res.pairs:
        assert dominates(V3.residence_of(s2), U3.residence_of(s1)).holds
        for a in U3.labels:
            assert _weight_function_exists(U3.succ(s1, a), V3.succ(s2, a), allowed)


def test_simulation_needs_matching_masses():
    # a subdistribution row cannot be coupled with a full row
    a = Smdp(["a"], ["s0"], "s0", {"s0": Exponential(1.0)}, {("s0", "a"): {"s0": 0.5}})
    b = Smdp(["a"], ["t0"], "t0", {"t0": Exponential(1.0)}, {("t0", "a"): {"t0": 1.0}})
    assert not simulates(a, b).holds
    assert not simulates(b, a).holds



def test_equal_branches_match_one_branch_of_their_total_mass():
    """Three branches of 1/3 (or seven of 1/7) into exp(1) sinks against one
    branch of 1 into an exp(1) sink: masses rounded one by one to 1e-9 sum to
    999999999 (or 1000000001) quanta, yet the states are bisimilar and
    simulate each other."""
    chain = Smdp(["a"], ["r0", "r1"], "r0", {"r0": Exponential(1.0), "r1": Exponential(1.0)},
                 {("r0", "a"): {"r1": 1.0}})
    for n in (3, 7):
        sinks = [f"x{i}" for i in range(n)]
        fan = Smdp(["a"], ["s0"] + sinks, "s0", {s: Exponential(1.0) for s in ["s0"] + sinks},
                   {("s0", "a"): {x: 1 / n for x in sinks}})
        assert simulates(fan, chain).holds and simulates(chain, fan).holds, n
        assert bisimilar(fan, chain).holds and bisimilar(chain, fan).holds, n
        assert _weight_function_exists({x: 1 / n for x in sinks}, {"y0": 0.5, "y1": 0.5},
                                       {(x, y) for x in sinks for y in ("y0", "y1")}), n


def test_coupling_feasibility():
    """Weight functions by max-flow, and directly when one side has a single state."""
    half = {"x": 0.5, "y": 0.5}
    assert _weight_function_exists(half, {"p": 0.5, "q": 0.5}, {("x", "p"), ("y", "q")})
    assert not _weight_function_exists(half, {"p": 0.5, "q": 0.5}, {("x", "p"), ("y", "p")})
    row1, row2 = {"x": 0.3, "y": 0.7}, {"p": 0.6, "q": 0.4}
    assert not _weight_function_exists(row1, row2, {("x", "p"), ("x", "q"), ("y", "q")})
    assert _weight_function_exists(row1, row2, {("x", "p"), ("y", "p"), ("y", "q")})
    assert not _weight_function_exists({"x": 1.0}, {"p": 0.5, "q": 0.5}, {("x", "p")})
    assert _weight_function_exists({"x": 1.0}, {"p": 0.5, "q": 0.5}, {("x", "p"), ("x", "q")})
    assert not _weight_function_exists(half, {"p": 0.5}, {("x", "p"), ("y", "p")})


# --- bisimulation -----------------------------------------------------------------

def test_fig3_bisimilar(U3, V3):
    res = bisimilar(U3, V3)
    assert res.holds
    assert ("u0", "v0") in res.pairs


def test_fig2_not_bisimilar(U, V):
    assert not bisimilar(U, V).holds


def test_self_bisimilar_all(U, V3):
    for m in (U, V3):
        assert bisimilar(m, m).holds


def test_bisimilarity_implies_two_way_simulation():
    pairs = [("fig3_U.smdp", "fig3_V.smdp"), ("fig2_U.smdp", "fig2_U.smdp"),
             ("fig2_U.smdp", "fig2_V.smdp"), ("branchy.smdp", "branchy.smdp")]
    for na, nb in pairs:
        a, b = corpus.load(na), corpus.load(nb)
        if bisimilar(a, b).holds:
            assert simulates(a, b).holds and simulates(b, a).holds, (na, nb)


def test_faster_than_transitive_consistency():
    # two NotRefuted links compose to a NotRefuted link at the same bounds;
    # the chains dominate each other stage by stage
    def scaled_chain(prefix, factor):
        rates = [2.0 * factor, 0.5 * factor, 1.0 * factor]
        names = [f"{prefix}{i}" for i in range(3)]
        return Smdp(["a"], names, names[0],
                    {s: Exponential(r) for s, r in zip(names, rates)},
                    {(names[0], "a"): {names[1]: 1.0},
                     (names[1], "a"): {names[2]: 1.0},
                     (names[2], "a"): {names[2]: 1.0}})

    fast, mid, slow = scaled_chain("f", 2.0), scaled_chain("m", 1.0), scaled_chain("s", 0.5)
    d = 6
    ab = faster_than_bounded(fast, mid, d)
    bc = faster_than_bounded(mid, slow, d)
    ac = faster_than_bounded(fast, slow, d)
    assert ab.outcome == bc.outcome == ac.outcome == "NotRefuted"


def test_incomparability_witnesses():
    """simulation and the faster-than preorder disagree in both directions."""
    U3, V3 = corpus.load("fig3_U.smdp"), corpus.load("fig3_V.smdp")
    assert bisimilar(U3, V3).holds
    assert faster_than_bounded(U3, V3, depth=6, search=SchedulerSearchSpec(step=0.5)).refuted
    U, V = corpus.load("fig2_U.smdp"), corpus.load("fig2_V.smdp")
    assert faster_than_bounded(U, V, depth=8).outcome == "NotRefuted"
    assert not simulates(U, V).holds
    assert not bisimilar(U, V).holds


def _uniform_context(rng):
    """Two-label context whose states draw from two uniform laws, so composite states share laws."""
    names = ["w0", "w1", "w2"]
    lo = round(rng.uniform(0.1, 0.5), 2)
    laws = [Uniform(0.0, 1.0), Uniform(lo, round(lo + rng.uniform(0.5, 1.5), 2))]
    residence = {s: rng.choice(laws) for s in names}
    trans = {(s, a): {t: 0.5 for t in rng.sample(names, 2)} for s in names for a in ("a", "b")}
    return Smdp(["a", "b"], names, names[0], residence, trans)


def test_relations_match_per_pair_dominance_on_uniform_composites():
    """simulates/bisimilar check each pair of laws once; the verdicts are those of a per-state-pair check."""
    rng = random.Random(4)
    related = 0
    for _ in range(12):
        base = random_two_label_model(rng, live_initial=True)
        a = compose(base, _uniform_context(rng), rng.choice(("min", "max")))
        other = base if rng.random() < 0.5 else random_two_label_model(rng, live_initial=True)
        b = compose(other, _uniform_context(rng), rng.choice(("min", "max")))
        for left, right in ((a, b), (b, a), (a, a)):
            sim, bis = simulates(left, right), bisimilar(left, right)
            assert (sim.holds, sim.pairs) == reference_simulates(left, right)
            assert (bis.holds, bis.pairs) == reference_bisimilar(left, right)
            related += len(sim.pairs) + len(bis.pairs)
    assert related > 100


def test_second_simulation_check_reads_cached_cdf_tables(monkeypatch):
    """The dominance grid's CDF tables outlive one call: checking the same
    models again tabulates no CDF."""
    rng = random.Random(9)
    a = compose(random_two_label_model(rng, live_initial=True), _uniform_context(rng), "min")
    b = compose(random_two_label_model(rng, live_initial=True), _uniform_context(rng), "max")
    calls = []
    tabulate = distributions.cdf_vec
    monkeypatch.setattr(distributions, "cdf_vec", lambda *args: calls.append(args) or tabulate(*args))
    distributions._grid_cdf.cache_clear()
    first = simulates(a, b)
    assert calls
    calls.clear()
    assert simulates(a, b) == first and calls == []


_AUDIT_SEED11_205 = (
    "labels: a\nstates: u0 u1 u2\ninitial: u0\nresidence:\n"
    "  u0 exp(2.85)\n  u1 exp(1.5)\n  u2 exp(1.5)\n"
    "transitions:\n  u0 a u1 0.7\n  u0 a u2 0.3\n  u1 a u2 1.0\n  u2 a u0 1.0\n",
    "labels: a\nstates: v0 v1 v2\ninitial: v0\nresidence:\n"
    "  v0 exp(1.9)\n  v1 exp(1.0)\n  v2 exp(1.0)\n"
    "transitions:\n  v0 a v1 0.7\n  v0 a v2 0.3\n  v1 a v2 1.0\n  v2 a v0 1.0\n",
    "labels: a\nstates: w0 w1 w2\ninitial: w0\nresidence:\n"
    "  w0 uniform(0.41,1.09)\n  w1 uniform(0.27,1.38)\n  w2 uniform(0.3,1.05)\n"
    "transitions:\n  w0 a w1 1.0\n  w1 a w2 1.0\n  w2 a w0 1.0\n",
)


def test_faster_than_on_uniform_context_has_no_quadrature_refutation():
    # anomaly-audit, seed 11, instance 205: U and V under min with a uniform
    # context.  Adaptive quadrature put the fast composite's "aa" at t = 10 at
    # 0.99987556, 1.23e-4 below its 30-digit value 0.99999893660803826 and
    # below the slow composite's 0.99988226181206105, a Refuted verdict with
    # no anomaly behind it.
    u, v, w = map(parse_model, _AUDIT_SEED11_205)
    uw, vw = compose(u, w, "min"), compose(v, w, "min")
    assert faster_than_bounded(uw, vw, 2).outcome == "NotRefuted"
    c = TimeBoundedCylinder(("a", "a"), 10.0)
    assert abs(prob_cylinder_paths(uw, Scheduler({s: {"a": 1.0} for s in uw.states}), uw.initial, c)
               - 0.99999893660803826) <= 1e-15
