"""Monotonicity checks, the path bound, and the brute-force oracle comparison."""

import random

import pytest

from smdpcheck import corpus
from smdpcheck.composition import compose
from smdpcheck.distributions import Exponential, cdf_eval, dominates
from smdpcheck.model import Smdp, has_deterministic_kernel
from smdpcheck.monotonicity import (
    _best_assignment,
    check_monotonicity_bounded,
    check_strong_monotonicity,
    enumerate_state_paths,
    path_bound,
)
from smdpcheck.relations import faster_than_bounded
from tests_support import (
    oracle_bounded_monotonicity,
    random_two_label_model,
    reference_best_assignment,
    reference_check_monotonicity_bounded,
    reference_check_strong_monotonicity,
    scipy_best_assignment,
)


@pytest.fixture(scope="module")
def U():
    return corpus.load("fig2_U.smdp")


@pytest.fixture(scope="module")
def V():
    return corpus.load("fig2_V.smdp")


def small_model(prefix, n, rates=None):
    names = [f"{prefix}{i}" for i in range(n)]
    rates = rates or [1.0] * n
    trans = {}
    for a, b in zip(names, names[1:]):
        trans[(a, "a")] = {b: 1.0}
    trans[(names[-1], "a")] = {names[-1]: 1.0}
    return Smdp(["a"], names, names[0],
                {s: Exponential(r) for s, r in zip(names, rates)}, trans)


# --- path bound and path enumeration ----------------------------------------

def test_path_bound_formula(U, V):
    W = corpus.load("fig4_W_congruent.smdp")
    assert path_bound(U, V, W, W) == 13
    one = small_model("x", 1)
    assert path_bound(one, one, one, one) == 3
    assert path_bound(small_model("a", 2), small_model("b", 4),
                      small_model("c", 3), small_model("d", 1)) == 11


def test_enumerate_state_paths(U):
    assert list(enumerate_state_paths(U, 3)) == [("u0", "u1", "u2")]
    assert list(enumerate_state_paths(U, 5)) == [("u0", "u1", "u2", "u2", "u2")]
    V3 = corpus.load("fig3_V.smdp")
    assert list(enumerate_state_paths(V3, 2)) == [("v0", "v1"), ("v0", "v2")]


def test_paths_vanish_after_deadlock():
    dead = Smdp(["a"], ["d0", "d1"], "d0",
                {"d0": Exponential(1.0), "d1": Exponential(1.0)},
                {("d0", "a"): {"d1": 1.0}})
    assert list(enumerate_state_paths(dead, 2)) == [("d0", "d1")]
    assert list(enumerate_state_paths(dead, 3)) == []


# --- verdicts on the running instances ---------------------------------------

def test_congruent_context_strong_holds(U, V):
    W = corpus.load("fig4_W_congruent.smdp")
    rep = check_strong_monotonicity(U, V, W, W, "min")
    assert rep.holds and rep.mode == "Strong" and rep.bound == 13


def test_product_instance_fails_cdf_slow(U, V):
    W = corpus.load("fig4_W_product.smdp")
    rep = check_strong_monotonicity(U, V, W, W, "prodrate")
    assert not rep.holds
    v = rep.violations[0]
    assert v.condition == "CdfSlow" and v.states[0] == "v0"
    # the violation is re-verifiable: Exp(0.5) falls below Exp(5) at the witness
    assert cdf_eval(Exponential(0.5), v.witness_t) < cdf_eval(Exponential(5.0), v.witness_t)


def test_minimum_instance_fails_cdf_fast(U, V):
    W = corpus.load("fig4_W_minimum.smdp")
    rep = check_monotonicity_bounded(U, V, W, W, "min", 2)
    assert not rep.holds
    v = rep.violations[0]
    assert v.condition == "CdfFast" and v.states[0] == "u0"
    assert cdf_eval(Exponential(1.0), v.witness_t) < cdf_eval(Exponential(2.0), v.witness_t)


def test_maximum_instance_fails(U, V):
    W = corpus.load("fig4_W_maximum.smdp")
    rep = check_strong_monotonicity(U, V, W, W, "max")
    assert not rep.holds
    assert rep.violations[0].condition == "CdfSlow"


def test_strong_implies_bounded(U, V):
    W = corpus.load("fig4_W_congruent.smdp")
    m = path_bound(U, V, W, W)
    assert check_strong_monotonicity(U, V, W, W, "min").holds
    for n in range(1, m + 1):
        assert check_monotonicity_bounded(U, V, W, W, "min", n).holds


def test_failure_persists_at_larger_depth(U, V):
    W = corpus.load("fig4_W_minimum.smdp")
    for n in (2, 3, 4, 8):
        assert not check_monotonicity_bounded(U, V, W, W, "min", n).holds


def test_det_kernel_required(U, V):
    W = corpus.load("fig4_W_congruent.smdp")
    branchy_ctx = Smdp(["a"], ["c0", "c1"], "c0",
                       {"c0": Exponential(2.0), "c1": Exponential(2.0)},
                       {("c0", "a"): {"c0": 0.5, "c1": 0.5}, ("c1", "a"): {"c1": 1.0}})
    assert not has_deterministic_kernel(branchy_ctx)
    rep = check_strong_monotonicity(U, V, W, branchy_ctx, "min")
    assert not rep.holds
    assert rep.violations[0].condition == "DetKernel"


def test_two_label_nondeadlock_fails_sched_fast():
    m2 = corpus.load("fig3_U.smdp")
    rep = check_strong_monotonicity(m2, m2, m2, m2, "min")
    assert not rep.holds
    assert rep.violations[0].condition == "SchedFast"


def test_two_label_random_models_never_strongly_monotonic():
    """With two labels and a live initial state, strong mode must fail."""
    rng = random.Random(99)
    for trial in range(50):
        u = random_two_label_model(rng, live_initial=True)
        v = random_two_label_model(rng)
        w = random_two_label_model(rng)
        w2 = random_two_label_model(rng, det=True)
        rep = check_strong_monotonicity(u, v, w, w2, "min")
        assert not rep.holds, trial


def test_anomaly_links_to_refutation(U, V):
    """Failing the conditions goes along with the composite-level refutation."""
    for wname, op in (("fig4_W_product.smdp", "prodrate"),
                      ("fig4_W_minimum.smdp", "min"),
                      ("fig4_W_maximum.smdp", "max")):
        W = corpus.load(wname)
        assert not check_strong_monotonicity(U, V, W, W, op).holds
        verdict = faster_than_bounded(compose(U, W, op), compose(V, W, op), depth=13)
        assert verdict.refuted
        assert verdict.witness.word == "aa" and verdict.witness.t == pytest.approx(2.0)


def test_avoidance_end_to_end(U, V):
    """Strong monotonicity plus componentwise ordering keeps the composite ordered."""
    W = corpus.load("fig4_W_congruent.smdp")
    m = path_bound(U, V, W, W)
    assert check_strong_monotonicity(U, V, W, W, "min").holds
    assert faster_than_bounded(U, V, m).outcome == "NotRefuted"
    assert faster_than_bounded(W, W, m).outcome == "NotRefuted"
    UW = compose(U, W, "min")
    VW = compose(V, W, "min")
    assert faster_than_bounded(UW, VW, m).outcome == "NotRefuted"


# --- whole reports against the reference checkers ---------------------------

def _random_quadruple(rng):
    """(u, v, w, w2, op) over one or two labels; v may list the labels in another order."""
    labels = rng.choice((("a",), ("a", "b")))
    u = random_two_label_model(rng, labels=labels)
    v = random_two_label_model(rng, labels=tuple(rng.sample(labels, len(labels))))
    w = random_two_label_model(rng, labels=labels)
    w2 = random_two_label_model(rng, det=rng.random() < 0.8, labels=labels)
    return u, v, w, w2, rng.choice(("min", "max", "prodrate"))


def test_reports_match_reference_checkers(U, V):
    """Every report, details and path prefixes included, equals the reference's."""
    cases = [(U, V, corpus.load(name), corpus.load(name), op) for name, op in (
        ("fig4_W_congruent.smdp", "min"), ("fig4_W_product.smdp", "prodrate"),
        ("fig4_W_minimum.smdp", "min"), ("fig4_W_maximum.smdp", "max"))]
    cases.append((corpus.load("fig3_U.smdp"),) * 4 + ("min",))
    rng = random.Random(909)
    cases += [_random_quadruple(rng) for _ in range(300)]
    compared = 0
    for u, v, w, w2, op in cases:
        for collect_all in (False, True):
            mine = check_strong_monotonicity(u, v, w, w2, op, collect_all)
            assert mine == reference_check_strong_monotonicity(u, v, w, w2, op, collect_all)
            compared += 1
            for n in (1, 2, 3, 5):
                mine = check_monotonicity_bounded(u, v, w, w2, op, n, collect_all)
                assert mine == reference_check_monotonicity_bounded(u, v, w, w2, op, n, collect_all)
                compared += 1
    assert compared == 3050


def test_first_violation_ends_the_work(U, V, monkeypatch):
    """Without collect_all, no condition past the first violation is evaluated."""
    from smdpcheck import monotonicity

    calls = []
    monkeypatch.setattr(monotonicity, "dominates", lambda d1, d2: calls.append(1) or dominates(d1, d2))
    W = corpus.load("fig4_W_product.smdp")
    first = check_strong_monotonicity(U, V, W, W, "prodrate")
    assert [x.condition for x in first.violations] == ["CdfSlow"] and len(calls) == 2
    every = check_strong_monotonicity(U, V, W, W, "prodrate", collect_all=True)
    assert every.violations[0] == first.violations[0] and len(calls) > 4


# --- brute-force oracle -------------------------------------------------------

def test_vertex_reduction_matches_brute_force_on_corpus():
    U = corpus.load("fig2_U.smdp")
    V = corpus.load("fig2_V.smdp")
    for wname, op in (("fig4_W_congruent.smdp", "min"),
                      ("fig4_W_product.smdp", "prodrate"),
                      ("fig4_W_minimum.smdp", "min"),
                      ("fig4_W_maximum.smdp", "max")):
        W = corpus.load(wname)
        for n in (2, 3):
            mine = check_monotonicity_bounded(U, V, W, W, op, n).holds
            oracle = oracle_bounded_monotonicity(U, V, W, W, op, n)
            assert mine == oracle, (wname, n)


def test_vertex_reduction_matches_brute_force_on_random_models():
    rng = random.Random(2024)
    checked = 0
    for trial in range(40):
        u = random_two_label_model(rng, n_max=4)
        v = random_two_label_model(rng, n_max=4)
        w = random_two_label_model(rng, n_max=4)
        w2 = random_two_label_model(rng, n_max=4, det=True)
        n = rng.randint(2, 3)
        mine = check_monotonicity_bounded(u, v, w, w2, "min", n).holds
        oracle = oracle_bounded_monotonicity(u, v, w, w2, "min", n)
        assert mine == oracle, trial
        checked += 1
    assert checked == 40


def _random_pressures(rng, n_labels, n_ctx, tied=False):
    """label -> {context state: mass}, some pairs missing, some labels empty;
    `tied` masses are multiples of 0.25, so many sums tie."""
    return {f"a{i}": {f"w{j}": rng.randint(1, 4) * 0.25 if tied else rng.random()
                      for j in range(n_ctx) if rng.random() < 0.7}
            for i in range(n_labels)}


def test_best_assignment_matches_enumeration():
    rng = random.Random(66)
    for n_labels in range(1, 6):
        for n_ctx in range(1, 6):
            for _ in range(6):
                pressures = _random_pressures(rng, n_labels, n_ctx)
                assert _best_assignment(pressures) == pytest.approx(
                    reference_best_assignment(pressures), abs=1e-12), pressures
    assert _best_assignment({}) == 0.0
    assert _best_assignment({"a": {}, "b": {}}) == 0.0
    assert _best_assignment({"a": {"w0": 0.5}, "b": {"w0": 0.75}}) == 0.75
    # 7 labels over 8 context states, where the enumeration visits 8!/(8-k)! orders per
    # k-label subset
    pressures = _random_pressures(random.Random(7), 7, 8)
    assert _best_assignment(pressures) == pytest.approx(
        reference_best_assignment(pressures), abs=1e-12)


def test_best_assignment_matches_scipy():
    """The same float as scipy's linear_sum_assignment up to 7 labels, on both
    orientations, with ties and with empty label rows; within 1e-12 beyond."""
    rng = random.Random(1955)
    for n_labels in range(1, 8):
        for n_ctx in range(1, 8):
            for trial in range(12):
                pressures = _random_pressures(rng, n_labels, n_ctx, tied=trial % 2 == 1)
                if trial % 3 == 0:
                    pressures[rng.choice(sorted(pressures))] = {}
                assert _best_assignment(pressures) == scipy_best_assignment(pressures), pressures
    for shape in ((12, 15), (15, 12)):
        for _ in range(20):
            pressures = _random_pressures(rng, *shape)
            assert _best_assignment(pressures) == pytest.approx(
                scipy_best_assignment(pressures), abs=1e-12), pressures
