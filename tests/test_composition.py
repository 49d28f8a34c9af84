"""Synchronous product construction."""

import pytest

from smdpcheck import corpus
from smdpcheck.composition import compose, composite_name
from smdpcheck.cylinders import TimeBoundedCylinder, prob_cylinder_paths
from smdpcheck.distributions import Exponential
from smdpcheck.errors import LabelMismatch, UnknownState, UnsupportedComposition
from smdpcheck.model import (
    Smdp,
    dirac_scheduler,
    has_deterministic_kernel,
    uniform_scheduler,
    validate_model,
)


@pytest.fixture(scope="module")
def U():
    return corpus.load("fig2_U.smdp")


@pytest.fixture(scope="module")
def V():
    return corpus.load("fig2_V.smdp")


def test_product_composition_rates(U):
    W = corpus.load("fig4_W_product.smdp")
    UW = compose(U, W, "prodrate")
    assert UW.initial == composite_name("u0", "w0")
    assert [UW.residence_of(s) for s in UW.states] == [
        Exponential(20.0), Exponential(0.05), Exponential(1.0)]


def test_minimum_composition_rates(V):
    W = corpus.load("fig4_W_minimum.smdp")
    VW = compose(V, W, "min")
    assert [VW.residence_of(s) for s in VW.states] == [
        Exponential(0.5), Exponential(2.0), Exponential(1.0)]


def test_self_minimum_is_identity_on_rates(U):
    UU = compose(U, U, "min")
    assert [UU.residence_of(s) for s in UU.states] == [
        U.residence_of(s) for s in U.states]
    # cylinder probabilities coincide with the component's
    sch_uu = dirac_scheduler(UU, "a")
    sch_u = dirac_scheduler(U, "a")
    for n in (1, 2, 3):
        for t in (0.5, 2.0):
            a = prob_cylinder_paths(UU, sch_uu, UU.initial, TimeBoundedCylinder(("a",) * n, t))
            b = prob_cylinder_paths(U, sch_u, U.initial, TimeBoundedCylinder(("a",) * n, t))
            assert a == pytest.approx(b, abs=1e-12)


def test_composition_commutes_on_cylinders():
    def words(labels, n):
        if n == 0:
            return [()]
        return [w + (a,) for w in words(labels, n - 1) for a in labels]

    pairs = [("fig2_U.smdp", "fig4_W_product.smdp", "prodrate"),
             ("fig2_U.smdp", "fig4_W_minimum.smdp", "min"),
             ("fig2_U.smdp", "fig4_W_maximum.smdp", "max"),
             ("fig2_V.smdp", "fig4_W_congruent.smdp", "min"),
             ("fig3_U.smdp", "fig3_V.smdp", "min"),
             ("fig3_U.smdp", "fig3_V.smdp", "max")]
    for aname, bname, op in pairs:
        A = corpus.load(aname)
        B = corpus.load(bname)
        AB = compose(A, B, op)
        BA = compose(B, A, op)
        for n in (1, 2, 3):
            for w in words(A.labels, n)[:4]:
                for t in (0.5, 1.0, 2.0):
                    c = TimeBoundedCylinder(w, t)
                    pa = prob_cylinder_paths(AB, uniform_scheduler(AB), AB.initial, c)
                    pb = prob_cylinder_paths(BA, uniform_scheduler(BA), BA.initial, c)
                    assert abs(pa - pb) <= 1e-9, (aname, bname, op, w, t)


def test_composite_is_valid_and_mass_safe(U):
    branchy = corpus.load("branchy.smdp")
    both = compose(branchy, branchy, "min")
    assert validate_model(both) == []
    for (s, a), row in both.transitions.items():
        assert sum(row.values()) <= 1.0 + 1e-12
    # a successor that is not a declared state is named, not an unorderable key
    dangling = Smdp(["a"], ["u0", "u1"], "u0", {"u0": Exponential(1.0), "u1": Exponential(1.0)},
                    {("u0", "a"): {"u1": 0.5, "zz": 0.5}})
    with pytest.raises(UnknownState, match="'zz'"):
        compose(dangling, U, "min")


def test_deterministic_kernel_preserved(U):
    W = corpus.load("fig4_W_minimum.smdp")
    assert has_deterministic_kernel(compose(U, W, "min"))


def test_unreachable_states_pruned(U):
    W = corpus.load("fig4_W_product.smdp")
    UW = compose(U, W, "prodrate")
    assert len(UW.states) == 3  # not the full 9-state product


def test_label_mismatch_rejected(U):
    other = corpus.load("fig3_U.smdp")
    with pytest.raises(LabelMismatch):
        compose(U, other, "min")
    only_z = Smdp(["z"], ["z0"], "z0", {"z0": Exponential(1.0)}, {("z0", "z"): {"z0": 1.0}})
    with pytest.raises(LabelMismatch, match="intersection is empty"):
        compose(U, only_z, "min", project=True)


def test_project_intersects_labels(U):
    other = corpus.load("fig3_U.smdp")  # labels a, b
    prod = compose(other, U, "min", project=True)
    assert prod.labels == ("a",)
    assert validate_model(prod) == []


def test_product_rate_requires_exponentials():
    uc = corpus.load("uniform_chain.smdp")
    with pytest.raises(UnsupportedComposition):
        compose(uc, uc, "prodrate")
