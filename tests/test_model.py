"""Model data types, validation, and the text format."""

import random

import pytest

from smdpcheck import corpus
from smdpcheck.distributions import Dirac, Exponential, Uniform
from smdpcheck.errors import ModelFormatError, UnknownLabel, UnknownState
from smdpcheck.model import (
    Scheduler,
    Smdp,
    dirac_scheduler,
    effective_transition,
    has_deterministic_kernel,
    parse_model,
    parse_scheduler,
    serialize_model,
    serialize_scheduler,
    uniform_scheduler,
    validate_model,
    validate_scheduler,
)
from smdpcheck.relations import faster_than_bounded


def chain(names, dists, label="a"):
    """Deterministic chain with a final self-loop."""
    transitions = {}
    for a, b in zip(names, names[1:]):
        transitions[(a, label)] = {b: 1.0}
    transitions[(names[-1], label)] = {names[-1]: 1.0}
    return Smdp([label], names, names[0], dict(zip(names, dists)), transitions)


def test_corpus_files_validate():
    for name in corpus.names():
        if name.endswith(".smdp"):
            m = corpus.load(name)
            assert validate_model(m) == [], name


def test_fig2_shape():
    m = corpus.load("fig2_U.smdp")
    assert m.states == ("u0", "u1", "u2")
    assert m.residence_of("u0") == Exponential(2.0)
    assert m.residence_of("u1") == Exponential(0.5)
    assert m.residence_of("u2") == Exponential(1.0)
    assert m.succ("u0", "a") == {"u1": 1.0}


def test_mass_violation_reported():
    m = Smdp(["a"], ["s0", "s1"], "s0",
             {"s0": Exponential(1.0), "s1": Exponential(1.0)},
             {("s0", "a"): {"s0": 0.6, "s1": 0.6}})
    kinds = [v.kind for v in validate_model(m)]
    assert kinds == ["MassExceeded"]


def test_missing_residence_reported():
    m = Smdp(["a"], ["s0", "s1"], "s0", {"s0": Exponential(1.0)},
             {("s0", "a"): {"s1": 1.0}})
    kinds = [v.kind for v in validate_model(m)]
    assert kinds == ["MissingResidence"]


def test_duplicate_names_reported():
    m = Smdp(["a"], ["s0", "s0"], "s0", {"s0": Exponential(1.0)}, {})
    assert any(v.kind == "DuplicateName" for v in validate_model(m))


def test_dangling_references_reported():
    m = Smdp(["a"], ["s0"], "s0", {"s0": Exponential(1.0), "ghost": Dirac(1.0)},
             {("s0", "b"): {"nowhere": 1.0}})
    kinds = {v.kind for v in validate_model(m)}
    assert kinds == {"DanglingState", "DanglingLabel"}


_HEAD = "labels: a\nstates: s0\ninitial: s0\n"  # lines 1-3


@pytest.mark.parametrize("parse, text, line, message", [
    (parse_model, _HEAD + "transitions:\n  s0 a s0 1/x\n", 5, "bad rational '1/x'"),
    (parse_model, _HEAD + "transitions:\n  s0 a s0 1/0\n", 5, "bad rational '1/0'"),
    (parse_model, _HEAD + "transitions:\n  s0 a s0 one\n", 5, "bad number 'one'"),
    (parse_model, _HEAD + "residence:\n  s0 exp(-1)\n", 5, "Exponential rate must be finite and > 0"),
    (parse_model, _HEAD + "residence:\n  s0 uniform(2,1)\n", 5, "Uniform requires 0 <= lo < hi"),
    (parse_model, "labels: a\nlabels: b\n", 2, "duplicate section 'labels'"),
    (parse_model, "labels: a\nstates: s0 s1\ninitial: s0 s1\n", 3, "initial takes exactly one state"),
    (parse_model, _HEAD + "residence: s0 exp(1)\n", 4, "takes indented lines, not inline values"),
    (parse_model, _HEAD + "residence:\n  s0 exp(1) exp(2)\n", 5, "residence line must be"),
    (parse_model, _HEAD + "transitions:\n  s0 a s0\n", 5, "transition line must be"),
    (parse_model, _HEAD + "transitions:\n  s0 a s0 1/2\n  s0 a s0 1/2\n", 6, "duplicate transition s0 a s0"),
    (parse_model, "s0 a s0 1\n" + _HEAD, 1, "unexpected line outside a section"),
    (parse_model, "labels: a\nstates: s0\n", 0, "missing initial: section"),
    (parse_model, "labels: a\ninitial: s0\n", 0, "missing states: section"),
    (parse_model, "states: s0\ninitial: s0\n", 0, "missing labels: section"),
    (parse_scheduler, "s0 a 1\ns0 a\n", 2, "scheduler line must be"),
    (parse_scheduler, "s0 a 0.5\ns0 a 0.5\n", 2, "duplicate scheduler entry s0 a"),
])
def test_parse_errors_name_their_line(parse, text, line, message):
    with pytest.raises(ModelFormatError) as exc:
        parse(text)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: ") and message in str(exc.value)


_E = Exponential(1.0)


@pytest.mark.parametrize("model, scheduler, found", [
    (Smdp(["a"], [], "s0", {}, {}), None, [("NoStates", "-"), ("BadInitial", "s0")]),
    (Smdp([], ["s0"], "s0", {"s0": _E}, {}), None, [("NoLabels", "-")]),
    (Smdp(["a", "a"], ["s0"], "s0", {"s0": _E}, {}), None, [("DuplicateName", "labels")]),
    (Smdp(["a"], ["s0"], "s1", {"s0": _E}, {}), None, [("BadInitial", "s1")]),
    (Smdp(["a"], ["s0"], "s0", {"s0": _E}, {("ghost", "a"): {"s0": 1.0}}), None,
     [("DanglingState", "ghost")]),
    (Smdp(["a"], ["s0"], "s0", {"s0": _E}, {}), Scheduler({"s0": {"a": 0.5, "b": 0.5}}),
     [("DanglingLabel", "b")]),
    (Smdp(["a", "b"], ["s0"], "s0", {"s0": _E}, {}), Scheduler({"s0": {"a": 1.5, "b": -0.5}}),
     [("BadProbability", "s0,b")]),
])
def test_validation_kinds(model, scheduler, found):
    problems = validate_model(model) if scheduler is None else validate_scheduler(model, scheduler)
    assert [(v.kind, v.subject) for v in problems] == found


def test_effective_transition():
    v = corpus.load("fig3_V.smdp")
    sch = corpus.load_scheduler("fig3_V_half.sched")
    assert validate_scheduler(v, sch) == []
    assert effective_transition(v, sch, "v0", "a", "v1") == pytest.approx(0.5)
    assert effective_transition(v, sch, "v1", "b", "v1") == 0.0  # zero scheduler mass
    u = corpus.load("fig2_U.smdp")
    only_a = dirac_scheduler(u, "a")
    assert effective_transition(u, only_a, "u0", "a", "u1") == 1.0
    with pytest.raises(UnknownState):
        effective_transition(u, only_a, "zz", "a", "u1")
    with pytest.raises(UnknownLabel):
        effective_transition(u, only_a, "u0", "c", "u1")
    # a successor that is not a declared state is unknown, not an unorderable key
    dangling = Smdp(["a"], ["u0", "u1"], "u0", {"u0": Exponential(1.0), "u1": Exponential(1.0)},
                    {("u0", "a"): {"u1": 0.5, "zz": 0.5}})
    with pytest.raises(UnknownState):
        dangling.adjacent("u0")
    with pytest.raises(UnknownState):
        faster_than_bounded(dangling, dangling, 2)


def test_effective_transition_mass_bound():
    m = corpus.load("branchy.smdp")
    sch = uniform_scheduler(m)
    for s in m.states:
        total = sum(effective_transition(m, sch, s, a, s2)
                    for a in m.labels for s2 in m.states)
        assert total <= 1.0 + 1e-9


def test_deterministic_kernel():
    assert has_deterministic_kernel(corpus.load("fig2_U.smdp"))
    assert not has_deterministic_kernel(corpus.load("branchy.smdp"))
    empty = Smdp(["a"], ["s0"], "s0", {"s0": Dirac(0.0)}, {})
    assert has_deterministic_kernel(empty)


def test_round_trip_corpus():
    for name in corpus.names():
        if name.endswith(".smdp"):
            m = corpus.load(name)
            assert parse_model(serialize_model(m)) == m, name


def test_round_trip_random_models():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 5)
        states = [f"s{i}" for i in range(n)]
        residence = {}
        for s in states:
            kind = rng.randrange(3)
            if kind == 0:
                residence[s] = Exponential(rng.uniform(0.1, 5.0))
            elif kind == 1:
                residence[s] = Dirac(rng.uniform(0.0, 3.0))
            else:
                lo = rng.uniform(0.0, 1.0)
                residence[s] = Uniform(lo, lo + rng.uniform(0.1, 2.0))
        transitions = {}
        for s in states:
            for a in ("a", "b"):
                if rng.random() < 0.7:
                    targets = rng.sample(states, k=min(n, rng.randint(1, 2)))
                    mass = rng.uniform(0.2, 1.0)
                    transitions[(s, a)] = {t: mass / len(targets) for t in targets}
        m = Smdp(["a", "b"], states, states[0], residence, transitions)
        assert validate_model(m) == []
        assert parse_model(serialize_model(m)) == m


def test_parse_rejects_unknown_section():
    bad = "labels: a\nstates: s0\ninitial: s0\nweird: 1\n"
    with pytest.raises(ModelFormatError) as exc:
        parse_model(bad)
    assert exc.value.line == 4


def test_parse_rejects_bad_residence():
    bad = ("labels: a\nstates: s0\ninitial: s0\n"
           "residence:\n  s0 gauss(1)\ntransitions:\n  s0 a s0 1\n")
    with pytest.raises(ModelFormatError) as exc:
        parse_model(bad)
    assert exc.value.line == 5


def test_parse_accepts_rationals_and_comments():
    text = ("# model\nlabels: a\nstates: s0 s1\ninitial: s0\n"
            "residence:\n  s0 exp(1)\n  s1 exp(2) # inline\n"
            "transitions:\n  s0 a s1 1/3\n")
    m = parse_model(text)
    assert m.succ("s0", "a")["s1"] == pytest.approx(1.0 / 3.0)


def test_parse_reports_duplicate_entries():
    text = ("labels: a\nstates: s0\ninitial: s0\nresidence:\n  s0 exp(1)\n  s0 exp(2)\n")
    with pytest.raises(ModelFormatError):
        parse_model(text)


def test_scheduler_round_trip_and_validation():
    sch = corpus.load_scheduler("fig3_V_half.sched")
    assert parse_scheduler(serialize_scheduler(sch)) == sch
    v = corpus.load("fig3_V.smdp")
    bad = Scheduler({"v0": {"a": 0.7, "b": 0.7}})
    kinds = {x.kind for x in validate_scheduler(v, bad)}
    assert "MassNotOne" in kinds and "MissingState" in kinds


def test_scheduler_repr_shows_every_digit_of_a_weight():
    a = Scheduler({"s": {"a": 0.1234567, "b": 0.8765433}})
    b = Scheduler({"s": {"a": 0.12345671, "b": 0.87654329}})
    assert repr(a) == "Scheduler(s:0.1234567*a+0.8765433*b)"
    assert repr(b) == "Scheduler(s:0.12345671*a+0.87654329*b)"


def test_uniform_scheduler_is_valid_everywhere():
    for name in corpus.names():
        if name.endswith(".smdp"):
            m = corpus.load(name)
            assert validate_scheduler(m, uniform_scheduler(m)) == []
