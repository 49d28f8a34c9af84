"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; `make reproduce` regenerates the same numbers into a report.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import smdpcheck
from smdpcheck import corpus
from smdpcheck.cli import main as cli_main
from smdpcheck.composition import compose
from smdpcheck.cylinders import (
    Interval,
    RectCylinder,
    RectStep,
    TimeBoundedCylinder,
    prob_cylinder_inductive,
    prob_cylinder_paths,
    prob_rect_cylinder,
)
from smdpcheck.distributions import Exponential, Uniform, Dirac, PhaseType, cdf_eval, convolve
from smdpcheck.model import dirac_scheduler
from smdpcheck.monotonicity import check_monotonicity_bounded, check_strong_monotonicity
from smdpcheck.montecarlo import estimate_cylinder
from smdpcheck.relations import faster_than_bounded

ANOMALIES = {
    # op: (context file, expected U*W value, expected V*W value) at word aa, t=2
    "prodrate": ("fig4_W_product.smdp", 0.0929, 0.3018),
    "min": ("fig4_W_minimum.smdp", 0.3996, 0.5156),
    "max": ("fig4_W_maximum.smdp", 0.7476, 0.9084),
}


class check_time:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, f"took {self.elapsed:.1f}s, limit {self.limit}s"
        return False


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    for name in corpus.names():
        shutil.copy(str(corpus.path(name)), root / name)
    return root


@pytest.fixture(scope="module")
def composites(workdir):
    """U*W and V*W model files for the three anomaly operators, via the CLI."""
    out = {}
    for op, (wname, _, _) in ANOMALIES.items():
        uw = workdir / f"UW_{op}.smdp"
        vw = workdir / f"VW_{op}.smdp"
        for left, path in (("fig2_U.smdp", uw), ("fig2_V.smdp", vw)):
            code = cli_main(["compose", "--left", str(workdir / left),
                             "--right", str(workdir / wname), "--op", op,
                             "--out", str(path)])
            assert code == 0
        out[op] = (uw, vw)
    return out


def run_json(capsys, *argv):
    capsys.readouterr()  # drop anything already buffered (progress prints)
    code = cli_main([str(a) for a in argv] + ["--json"])
    return code, json.loads(capsys.readouterr().out)


def _prob_cli(capsys, model_path, word, t):
    code, report = run_json(capsys, "prob", "--model", model_path, "--word", word, "--t", t)
    assert code == 0
    return report["result"]["probability"]


def _criterion_anomaly_values(capsys, composites, op, limit):
    wname, exp_u, exp_v = ANOMALIES[op]
    uw, vw = composites[op]
    with check_time(limit) as timer:
        got_u = _prob_cli(capsys, uw, "aa", 2.0)
        got_v = _prob_cli(capsys, vw, "aa", 2.0)
    assert got_u == pytest.approx(exp_u, abs=0.005)
    assert got_v == pytest.approx(exp_v, abs=0.005)
    return got_u, got_v, timer.elapsed


def test_criterion_1_product_anomaly_values(capsys, composites):
    got_u, got_v, dt = _criterion_anomaly_values(capsys, composites, "prodrate", 1.0)
    print(f"ACCEPTANCE 1 PASS: product composition aa@2 -> {got_u:.4f}/{got_v:.4f} "
          f"(0.0929/0.3018 +-0.005) in {dt:.2f}s")


def test_criterion_2_minimum_anomaly_values(capsys, composites):
    got_u, got_v, dt = _criterion_anomaly_values(capsys, composites, "min", 1.0)
    print(f"ACCEPTANCE 2 PASS: minimum composition aa@2 -> {got_u:.4f}/{got_v:.4f} "
          f"(0.3996/0.5156 +-0.005) in {dt:.2f}s")


def test_criterion_3_maximum_anomaly_values(capsys, composites):
    got_u, got_v, dt = _criterion_anomaly_values(capsys, composites, "max", 1.0)
    print(f"ACCEPTANCE 3 PASS: maximum composition aa@2 -> {got_u:.4f}/{got_v:.4f} "
          f"(0.7476/0.9084 +-0.005) in {dt:.2f}s")


# U*W and V*W at word aa, t = 2, as reproduce_report.json records them; the
# phase-type series behind them is accurate to 1e-12 (README, Tolerances)
PINNED_ANOMALY_VALUES = {
    "prodrate": (0.09289481901206098, 0.30175184371009456),
    "min": (0.39957640089372803, 0.5155992914009886),
    "max": (0.7476450724155089, 0.9084218055563291),
}


def test_anomaly_values_pinned_to_report(capsys, composites):
    for op, (fast, slow) in PINNED_ANOMALY_VALUES.items():
        uw, vw = composites[op]
        assert _prob_cli(capsys, uw, "aa", 2.0) == pytest.approx(fast, abs=1e-12), op
        assert _prob_cli(capsys, vw, "aa", 2.0) == pytest.approx(slow, abs=1e-12), op


def test_criterion_4_anomaly_refutations(capsys, composites):
    from smdpcheck.model import parse_model

    lines = []
    for op, (uw_path, vw_path) in composites.items():
        with check_time(30.0) as timer:
            code, report = run_json(capsys, "faster-than", "--fast", uw_path,
                                    "--slow", vw_path, "--depth", 13)
        assert code == 1
        w = report["result"]["witness"]
        assert report["result"]["outcome"] == "Refuted"
        assert w["word"] == "aa" and w["t"] == pytest.approx(2.0)
        # re-verify the witness by independent recomputation
        uw = parse_model(uw_path.read_text())
        vw = parse_model(vw_path.read_text())
        su = dirac_scheduler(uw, "a")
        sv = dirac_scheduler(vw, "a")
        c = TimeBoundedCylinder(("a", "a"), w["t"])
        fast = prob_cylinder_paths(uw, su, uw.initial, c)
        slow = prob_cylinder_paths(vw, sv, vw.initial, c)
        assert fast == pytest.approx(w["prob_fast"], abs=1e-9)
        assert slow == pytest.approx(w["prob_slow"], abs=1e-9)
        assert fast < slow - 1e-9
        lines.append(f"ACCEPTANCE 4 PASS ({op}): Refuted at word aa t=2 "
                     f"({fast:.4f} < {slow:.4f}) in {timer.elapsed:.2f}s")
    print("\n".join(lines))


def test_criterion_5_chain_swap(capsys, workdir):
    with check_time(60.0) as timer:
        code, report = run_json(capsys, "faster-than", workdir / "fig2_U.smdp",
                                workdir / "fig2_V.smdp", "--depth", 13)
        assert code == 0 and report["result"]["outcome"] == "NotRefuted"
        U = corpus.load("fig2_U.smdp")
        V = corpus.load("fig2_V.smdp")
        su, sv = dirac_scheduler(U, "a"), dirac_scheduler(V, "a")
        for n in range(2, 7):
            for t in (0.5, 1.0, 2.0, 5.0):
                pu = prob_cylinder_paths(U, su, "u0", TimeBoundedCylinder(("a",) * n, t))
                pv = prob_cylinder_paths(V, sv, "v0", TimeBoundedCylinder(("a",) * n, t))
                assert abs(pu - pv) <= 1e-9
    print(f"ACCEPTANCE 5 PASS: NotRefuted at depth 13; swap identity to 1e-9 "
          f"in {timer.elapsed:.2f}s")


def test_criterion_6_branching_refutation(capsys, workdir):
    with check_time(60.0) as timer:
        code, _ = run_json(capsys, "bisimilar", workdir / "fig3_U.smdp",
                           workdir / "fig3_V.smdp")
        assert code == 0
        code, report = run_json(capsys, "faster-than", workdir / "fig3_U.smdp",
                                workdir / "fig3_V.smdp", "--depth", 8, "--step", 0.5)
        assert code == 1
        w = report["result"]["witness"]
        assert w["slow_scheduler"]["v0"] == {"a": 0.5, "b": 0.5}
        U3, V3 = corpus.load("fig3_U.smdp"), corpus.load("fig3_V.smdp")
        from smdpcheck.model import Scheduler

        c = TimeBoundedCylinder(tuple(w["word"]), w["t"])
        fast = prob_cylinder_paths(U3, Scheduler(w["fast_scheduler"]), "u0", c)
        slow = prob_cylinder_paths(V3, Scheduler(w["slow_scheduler"]), "v0", c)
        assert fast < slow - 1e-9
    print(f"ACCEPTANCE 6 PASS: bisimilar yet Refuted with adversary "
          f"v0 -> a:0.5 b:0.5 (word {w['word']}) in {timer.elapsed:.2f}s")


def test_criterion_7_incomparability(capsys, workdir):
    code, _ = run_json(capsys, "simulates", workdir / "fig2_U.smdp", workdir / "fig2_V.smdp")
    assert code == 1
    code, _ = run_json(capsys, "bisimilar", workdir / "fig2_U.smdp", workdir / "fig2_V.smdp")
    assert code == 1
    code, report = run_json(capsys, "faster-than", workdir / "fig2_U.smdp",
                            workdir / "fig2_V.smdp", "--depth", 8)
    assert code == 0 and report["result"]["outcome"] == "NotRefuted"
    print("ACCEPTANCE 7 PASS: faster-than NotRefuted while simulation and "
          "bisimilarity both fail")


def test_criterion_8_strong_monotonicity_positive(capsys, workdir, composites):
    with check_time(120.0) as timer:
        code, report = run_json(capsys, "monotonicity",
                                "--fast", workdir / "fig2_U.smdp",
                                "--slow", workdir / "fig2_V.smdp",
                                "--ctx", workdir / "fig4_W_congruent.smdp",
                                "--op", "min", "--mode", "strong")
        assert code == 0
        assert report["result"]["verdict"] == "Holds"
        assert report["result"]["bound"] == 13
        U = corpus.load("fig2_U.smdp")
        V = corpus.load("fig2_V.smdp")
        W = corpus.load("fig4_W_congruent.smdp")
        UW = compose(U, W, "min")
        VW = compose(V, W, "min")
        verdict = faster_than_bounded(UW, VW, depth=13)
        assert verdict.outcome == "NotRefuted"
    print(f"ACCEPTANCE 8 PASS: strong monotonicity Holds at m=13 and the "
          f"composite stays NotRefuted in {timer.elapsed:.2f}s")


def test_criterion_9_singleton_proposition():
    from tests_support import random_two_label_model

    U3 = corpus.load("fig3_U.smdp")
    rep = check_strong_monotonicity(U3, U3, U3, U3, "min")
    assert not rep.holds
    assert rep.violations[0].condition == "SchedFast"
    rng = random.Random(4242)
    for trial in range(50):
        u = random_two_label_model(rng, live_initial=True)
        v = random_two_label_model(rng)
        w = random_two_label_model(rng)
        w2 = random_two_label_model(rng, det=True)
        assert not check_strong_monotonicity(u, v, w, w2, "min").holds, trial
    print("ACCEPTANCE 9 PASS: two labels with a live start always fail strong "
          "monotonicity (directed case SchedFast; 50 random instances)")


def test_criterion_10a_cross_engine(composites):
    from smdpcheck.model import parse_model

    checked = 0
    for op, (uw_path, vw_path) in composites.items():
        for path in (uw_path, vw_path):
            m = parse_model(path.read_text())
            sch = dirac_scheduler(m, "a")
            for n in (1, 2, 3):
                for t in (0.5, 1.0, 2.0, 5.0):
                    c = TimeBoundedCylinder(("a",) * n, t)
                    p = prob_cylinder_paths(m, sch, m.initial, c)
                    i = prob_cylinder_inductive(m, sch, m.initial, c)
                    assert abs(p - i) <= 1e-5, (op, path.name, n, t)
                    checked += 1
            # rect saturation: untimed steps match the huge-bound cylinder
            for n in (1, 2, 3):
                timed = prob_cylinder_paths(m, sch, m.initial,
                                            TimeBoundedCylinder(("a",) * n, 1e6))
                steps = tuple(RectStep(frozenset(["a"]), (Interval.unbounded(),),
                                       frozenset(m.states)) for _ in range(n))
                rect = prob_rect_cylinder(m, sch, m.initial, RectCylinder(steps))
                assert abs(timed - rect) <= 1e-9
    print(f"ACCEPTANCE 10a PASS: cross-engine agreement at 1e-5 on {checked} "
          f"composite cylinder values, rect saturation at 1e-9")


def test_criterion_10b_monte_carlo_ci(composites):
    from smdpcheck.model import parse_model

    for op, (uw_path, vw_path) in composites.items():
        for path in (uw_path, vw_path):
            m = parse_model(path.read_text())
            sch = dirac_scheduler(m, "a")
            analytic = prob_cylinder_paths(m, sch, m.initial, TimeBoundedCylinder(("a", "a"), 2.0))
            est, half = estimate_cylinder(m, sch, ("a", "a"), 2.0, 10 ** 6, seed=42)
            assert abs(est - analytic) <= half, (op, path.name, est, analytic, half)
    # the single-step chain case: the estimate tracks the first residence CDF
    U = corpus.load("fig2_U.smdp")
    sch = dirac_scheduler(U, "a")
    analytic = prob_cylinder_paths(U, sch, "u0", TimeBoundedCylinder(("a",), 2.0))
    est, half = estimate_cylinder(U, sch, ("a",), 2.0, 10 ** 6, seed=42)
    assert abs(est - analytic) <= half
    print("ACCEPTANCE 10b PASS: all six anomaly probabilities and the "
          "single-step case inside the 99% CI at 1e6 samples")


def test_criterion_10c_vertex_vs_bruteforce():
    from tests_support import oracle_bounded_monotonicity, random_two_label_model

    U = corpus.load("fig2_U.smdp")
    V = corpus.load("fig2_V.smdp")
    cases = 0
    for wname, op in (("fig4_W_congruent.smdp", "min"), ("fig4_W_product.smdp", "prodrate"),
                      ("fig4_W_minimum.smdp", "min"), ("fig4_W_maximum.smdp", "max")):
        W = corpus.load(wname)
        for n in (2, 3):
            mine = check_monotonicity_bounded(U, V, W, W, op, n).holds
            assert mine == oracle_bounded_monotonicity(U, V, W, W, op, n)
            cases += 1
    rng = random.Random(31337)
    for _ in range(25):
        u = random_two_label_model(rng)
        v = random_two_label_model(rng)
        w = random_two_label_model(rng)
        w2 = random_two_label_model(rng, det=True)
        n = rng.randint(2, 3)
        mine = check_monotonicity_bounded(u, v, w, w2, "min", n).holds
        assert mine == oracle_bounded_monotonicity(u, v, w, w2, "min", n)
        cases += 1
    print(f"ACCEPTANCE 10c PASS: vertex-adversary reduction equals the 0.1-step "
          f"scheduler-grid oracle on {cases} instances")


def test_criterion_10d_convolution_algebra():
    rng = random.Random(8)
    pool = [Exponential(2.0), Exponential(0.5), Uniform(0.0, 1.5), Dirac(0.7),
            PhaseType((1.0, 1.0))]
    grid = [k * 10.0 / 63.0 for k in range(64)]
    for _ in range(8):
        a, b, c = (rng.choice(pool) for _ in range(3))
        left = convolve(convolve(a, b), c)
        right = convolve(a, convolve(b, c))
        ab, ba = convolve(a, b), convolve(b, a)
        for t in grid:
            assert abs(cdf_eval(left, t) - cdf_eval(right, t)) <= 1e-8
            assert abs(cdf_eval(ab, t) - cdf_eval(ba, t)) <= 1e-9
    print("ACCEPTANCE 10d PASS: convolution commutativity/associativity within "
          "1e-8 on random triples")


def _without_elapsed(x):
    if isinstance(x, dict):
        return {k: _without_elapsed(v) for k, v in x.items() if k != "elapsed_seconds"}
    return [_without_elapsed(v) for v in x] if isinstance(x, list) else x


def test_reproduce_report_matches_the_committed_one(tmp_path):
    """`python -m smdpcheck.reproduce` writes the committed reproduce_report.json
    again, in every field but elapsed_seconds: the "same numbers" gate."""
    out = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(Path(smdpcheck.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "smdpcheck.reproduce", str(out)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    committed = Path(__file__).parents[1] / "reproduce_report.json"
    got, want = (_without_elapsed(json.loads(p.read_text())) for p in (out, committed))
    assert got == want
