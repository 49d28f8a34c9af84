"""Command-line interface: dispatch, exit codes, JSON reports."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from smdpcheck import corpus
from smdpcheck.cli import main
from smdpcheck.monotonicity import check_monotonicity_bounded


@pytest.fixture()
def models(tmp_path):
    """Corpus files copied next to each other for path-based invocation."""
    for name in corpus.names():
        shutil.copy(str(corpus.path(name)), tmp_path / name)
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main([str(a) for a in argv] + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_no_cli_command_loads_scipy(models):
    """Every command runs with scipy blocked and returns its usual exit code.
    Bounded monotonicity on fig4_W_congruent reaches the label matching.
    Importing the package loads no numpy.polynomial either."""
    u, v, w = (str(models / f"{name}.smdp") for name in ("fig2_U", "fig2_V", "fig4_W_congruent"))
    prob = ["prob", "--model", u, "--word", "aa", "--t", "2"]
    mono = ["monotonicity", "--fast", u, "--slow", v, "--ctx", w, "--op", "min"]
    commands = [
        (["validate", u], 0),
        (prob, 0),
        (prob + ["--engine", "inductive"], 0),
        (["compose", "--left", u, "--right", w, "--op", "min", "--out", str(models / "uw.smdp")], 0),
        (["faster-than", u, v, "--depth", "3"], 0),
        (["simulates", str(models / "fig3_U.smdp"), str(models / "fig3_V.smdp")], 0),
        (["bisimilar", u, v], 1),
        (["simulate", "--model", u, "--word", "aa", "--t", "2", "--samples", "1000"], 0),
        (mono, 0),
        (mono + ["--mode", "bounded", "--all"], 0),
    ]
    code = ("import sys\n"
            "sys.modules['scipy'] = None  # any import of scipy now fails\n"
            "import smdpcheck\n"
            "assert 'numpy.polynomial' not in sys.modules\n"
            "from smdpcheck.cli import main\n"
            f"for argv, expected in {commands!r}:\n"
            "    assert main(argv) == expected, argv\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_validate_ok(models, capsys):
    code, out = run(capsys, "validate", models / "fig2_U.smdp")
    assert code == 0 and "valid" in out


def test_validate_mass_violation(tmp_path, capsys):
    bad = tmp_path / "bad.smdp"
    bad.write_text("labels: a\nstates: s0\ninitial: s0\nresidence:\n  s0 exp(1)\n"
                   "transitions:\n  s0 a s0 1.2\n")
    code, report = run_json(capsys, "validate", bad)
    assert code == 2
    assert any("MassExceeded" in v for v in report["result"]["violations"])


def test_prob_engines(models, capsys):
    code, report = run_json(capsys, "prob", "--model", models / "fig2_U.smdp",
                            "--word", "aa", "--t", "2")
    assert code == 0
    assert report["result"]["probability"] == pytest.approx(0.5156, abs=0.005)
    code, report2 = run_json(capsys, "prob", "--model", models / "fig2_U.smdp",
                             "--word", "aa", "--t", "2", "--engine", "inductive")
    assert code == 0
    assert report2["result"]["probability"] == pytest.approx(
        report["result"]["probability"], abs=1e-5)


def test_prob_where_rate_times_t_underflows(tmp_path, capsys):
    # 0.5 * 5e-324 rounds to 0: the phase-type series must not take log(0)
    model = tmp_path / "slow.smdp"
    model.write_text("labels: a\nstates: s0 s1 s2\ninitial: s0\nresidence:\n"
                     "  s0 exp(0.5)\n  s1 exp(0.25)\n  s2 exp(1)\n"
                     "transitions:\n  s0 a s1 1\n  s1 a s2 1\n  s2 a s2 1\n")
    for engine in ("paths", "inductive"):
        code, report = run_json(capsys, "prob", "--model", model, "--word", "aa",
                                "--t", "5e-324", "--engine", engine)
        assert (code, report["result"]["probability"]) == (0, 0.0), engine


def test_prob_rect_engine(models, capsys):
    # rect cylinders bound each step separately, not the total time, so the
    # time-bounded prob command offers no rect engine
    with pytest.raises(SystemExit) as exc:
        main(["prob", "--model", str(models / "fig2_U.smdp"),
              "--word", "a", "--t", "1.5", "--engine", "rect"])
    assert exc.value.code == 2
    assert "invalid choice: 'rect'" in capsys.readouterr().err


def test_prob_with_scheduler(models, capsys):
    code, report = run_json(capsys, "prob", "--model", models / "fig3_V.smdp",
                            "--scheduler", models / "fig3_V_half.sched",
                            "--word", "aa", "--t", "2")
    assert code == 0
    assert report["result"]["probability"] == pytest.approx(
        0.5 * (1 - 3 * 2.718281828459045 ** -2), abs=1e-6)


def test_compose_then_prob(models, capsys):
    out = models / "UW.smdp"
    code, _ = run(capsys, "compose", "--left", models / "fig2_U.smdp",
                  "--right", models / "fig4_W_product.smdp", "--op", "prodrate",
                  "--out", out)
    assert code == 0 and out.exists()
    code, report = run_json(capsys, "prob", "--model", out, "--word", "aa", "--t", "2")
    assert code == 0
    assert report["result"]["probability"] == pytest.approx(0.0929, abs=0.005)


def test_compose_unsupported_exits_2(models, capsys):
    code = main(["compose", "--left", str(models / "uniform_chain.smdp"),
                 "--right", str(models / "uniform_chain.smdp"),
                 "--op", "prodrate", "--out", str(models / "x.smdp")])
    assert code == 2


def test_faster_than_exit_codes(models, capsys):
    code, out = run(capsys, "faster-than", models / "fig2_U.smdp", models / "fig2_V.smdp",
                    "--depth", "6")
    assert code == 0 and "NotRefuted" in out
    code, report = run_json(capsys, "faster-than", "--fast", models / "fig3_U.smdp",
                            "--slow", models / "fig3_V.smdp", "--depth", "4",
                            "--step", "0.5")
    assert code == 1
    assert report["result"]["outcome"] == "Refuted"
    assert report["result"]["witness"]["slow_scheduler"]["v0"] == {"a": 0.5, "b": 0.5}


def test_faster_than_reports_candidate_truncation(models, tmp_path, capsys):
    code, report = run_json(capsys, "faster-than", models / "fig3_U.smdp",
                            models / "fig3_V.smdp", "--depth", "2", "--step", "0.5")
    res = report["result"]
    assert code == 1
    assert (res["candidates"], res["candidate_lattice"], res["candidates_truncated"]) == (3, 3, False)
    assert "witness re-verifies" in res["meaning"] and "theorem" not in res["meaning"]
    # six two-label states at step 0.25: 5**6 fast schedulers, more than max_candidates
    names = [f"s{i}" for i in range(6)]
    wide = tmp_path / "wide.smdp"
    wide.write_text("labels: a b\nstates: " + " ".join(names) + "\ninitial: s0\nresidence:\n"
                    + "".join(f"  {s} exp(2)\n" for s in names) + "transitions:\n"
                    + "".join(f"  {s} {a} {t} 1\n" for s, t in zip(names, names[1:] + names[:1])
                              for a in "ab"))
    code, report = run_json(capsys, "faster-than", wide, models / "fig3_U.smdp", "--depth", "2")
    res = report["result"]
    assert (res["candidates"], res["candidate_lattice"], res["candidates_truncated"]) == (
        4096, 15625, True)
    code, out = run(capsys, "faster-than", wide, models / "fig3_U.smdp", "--depth", "2")
    assert "fast lattice truncated: 4096 of 15625 schedulers searched" in out


def test_faster_than_reports_a_state_map_proof(models, capsys):
    """fig3's V lumps onto U's one state with faster residences: the report carries
    the map and each pair's dominance outcome, and claims the relation outright.
    fig2's pair has no map, and its NotRefuted claims bounded evidence only."""
    argv = ["faster-than", models / "fig3_V.smdp", models / "fig3_U.smdp", "--depth", "3", "--step", "0.5"]
    code, report = run_json(capsys, *argv)
    res = report["result"]
    assert code == 0 and res["outcome"] == "NotRefuted" and res["witness"] is None
    assert res["proof"] == [{"fast": s, "slow": "u0", "dominance": "HoldsAnalytic"} for s in ("v0", "v1", "v2")]
    assert "proved for all depths and times by a state map" in res["meaning"]
    code, out = run(capsys, *argv)
    assert out.splitlines() == ["NotRefuted (depth 3, tmax 10.0, tpoints 5, step 0.5)",
                                "  (proved for all depths and times by a state map)",
                                "  v0 -> u0 (HoldsAnalytic)", "  v1 -> u0 (HoldsAnalytic)",
                                "  v2 -> u0 (HoldsAnalytic)"]
    code, report = run_json(capsys, "faster-than", models / "fig2_U.smdp", models / "fig2_V.smdp")
    assert code == 0 and report["result"]["proof"] is None
    assert "NotRefuted is bounded evidence only" in report["result"]["meaning"]
    code, out = run(capsys, "faster-than", models / "fig2_U.smdp", models / "fig2_V.smdp")
    assert "this does not prove the relation" in out


def test_faster_than_qualifies_a_proof_held_on_the_grid(tmp_path, capsys):
    """uniform(0,1) dominates exp(0.5), but no family rule decides the pair, so the
    proof rests on the dominance grid and the report says so."""
    for name, law in (("fast", "uniform(0,1)"), ("slow", "exp(0.5)")):
        (tmp_path / f"{name}.smdp").write_text(
            f"labels: a\nstates: q\ninitial: q\nresidence:\n  q {law}\ntransitions:\n  q a q 1\n")
    argv = ["faster-than", tmp_path / "fast.smdp", tmp_path / "slow.smdp", "--depth", "2"]
    code, report = run_json(capsys, *argv)
    res = report["result"]
    assert code == 0 and res["proof"] == [{"fast": "q", "slow": "q", "dominance": "HoldsOnGrid"}]
    claim = ("proved for all depths and times by a state map, "
             "up to the 512-point dominance grid on its HoldsOnGrid pairs")
    assert res["meaning"].startswith(f"NotRefuted: {claim}, ")
    code, out = run(capsys, *argv)
    assert out.splitlines()[1:] == [f"  ({claim})", "  q -> q (HoldsOnGrid)"]


def test_simulates_and_bisimilar(models, capsys):
    code, _ = run(capsys, "simulates", models / "fig3_U.smdp", models / "fig3_V.smdp")
    assert code == 0
    code, _ = run(capsys, "simulates", models / "fig2_U.smdp", models / "fig2_V.smdp")
    assert code == 1
    code, _ = run(capsys, "bisimilar", models / "fig3_U.smdp", models / "fig3_V.smdp")
    assert code == 0
    code, _ = run(capsys, "bisimilar", models / "fig2_U.smdp", models / "fig2_V.smdp")
    assert code == 1


def test_simulates_names_the_laws_no_dominance_grid_can_compare(tmp_path, capsys):
    """No rule decides uniform(0,1) against exp(1e-310), and their dominance
    grid would end past the largest float: exit 2, with both laws named."""
    for name, law in (("fast", "exp(1e-310)"), ("slow", "uniform(0,1)")):
        (tmp_path / f"{name}.smdp").write_text(
            f"labels: a\nstates: q\ninitial: q\nresidence:\n  q {law}\ntransitions:\n  q a q 1\n")
    code = main(["simulates", str(tmp_path / "fast.smdp"), str(tmp_path / "slow.smdp")])
    err = capsys.readouterr().err
    assert code == 2 and "uniform(0,1) and exp(1e-310)" in err, err


def test_monotonicity_cli(models, capsys, tmp_path):
    code, report = run_json(capsys, "monotonicity",
                            "--fast", models / "fig2_U.smdp",
                            "--slow", models / "fig2_V.smdp",
                            "--ctx", models / "fig4_W_congruent.smdp",
                            "--op", "min", "--mode", "strong")
    assert code == 0
    assert report["result"]["verdict"] == "Holds"
    smtdir = tmp_path / "queries"
    code, report = run_json(capsys, "monotonicity",
                            "--fast", models / "fig2_U.smdp",
                            "--slow", models / "fig2_V.smdp",
                            "--ctx", models / "fig4_W_product.smdp",
                            "--op", "prodrate", "--mode", "strong",
                            "--emit-smt", smtdir)
    assert code == 1
    assert report["result"]["violations"][0]["condition"] == "CdfSlow"
    assert report["result"]["smt_queries"]
    assert os.path.exists(report["result"]["smt_queries"][0])


def test_monotonicity_bounded_mode(models, capsys):
    code, report = run_json(capsys, "monotonicity",
                            "--fast", models / "fig2_U.smdp",
                            "--slow", models / "fig2_V.smdp",
                            "--ctx", models / "fig4_W_minimum.smdp",
                            "--op", "min", "--mode", "bounded", "--n", "2", "--all")
    assert code == 1
    assert report["result"]["mode"] == "Bounded"
    assert report["result"]["bound"] == 2
    conditions = {v["condition"] for v in report["result"]["violations"]}
    assert "CdfFast" in conditions


def test_monotonicity_json_violations_are_asdict(models, capsys):
    code, report = run_json(capsys, "monotonicity",
                            "--fast", models / "fig2_U.smdp",
                            "--slow", models / "fig2_V.smdp",
                            "--ctx", models / "fig4_W_product.smdp",
                            "--op", "prodrate", "--mode", "bounded", "--n", "3", "--all")
    expected = check_monotonicity_bounded(*(corpus.load(f"{name}.smdp") for name in (
        "fig2_U", "fig2_V", "fig4_W_product", "fig4_W_product")), "prodrate", 3, collect_all=True)
    assert code == 1 and len(expected.violations) > 1
    assert report["result"]["violations"] == json.loads(json.dumps(
        [dataclasses.asdict(v) for v in expected.violations]))


def test_validate_with_scheduler(models, capsys):
    code, _ = run(capsys, "validate", models / "fig3_V.smdp",
                  "--scheduler", models / "fig3_V_half.sched")
    assert code == 0
    code, report = run_json(capsys, "validate", models / "fig2_U.smdp",
                            "--scheduler", models / "fig3_V_half.sched")
    assert code == 2  # scheduler states do not exist in this model


def test_nan_scheduler_weight_is_invalid(models, capsys):
    """A NaN weight fails both scheduler checks: validate reports it, and the
    commands that load the scheduler exit 2 with an error, not a probability."""
    (models / "nan.sched").write_text("u0 a nan\nu1 a 1\nu2 a 1\n")
    u, sched = models / "fig2_U.smdp", models / "nan.sched"
    code, out = run(capsys, "validate", u, "--scheduler", sched)
    assert code == 2 and "BadProbability(u0,a)" in out and "MassNotOne(u0)" in out
    prob = ["prob", "--model", u, "--scheduler", sched, "--word", "aa", "--t", "2"]
    for argv in (prob, prob + ["--engine", "inductive"],
                 ["simulate", "--model", u, "--scheduler", sched, "--word", "aa", "--t", "2"]):
        code = main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err.startswith("error: ") and "invalid scheduler" in err and "Traceback" not in err, argv


def test_simulate_cli(models, capsys):
    code, report = run_json(capsys, "simulate", "--model", models / "fig2_U.smdp",
                            "--word", "aa", "--t", "2", "--samples", "50000",
                            "--seed", "42")
    assert code == 0
    r = report["result"]
    assert abs(r["estimate"] - 0.5156) <= max(3 * r["ci99_halfwidth"], 0.01)


def test_words_over_multi_character_labels(tmp_path, capsys):
    model = tmp_path / "gostop.smdp"
    model.write_text("labels: go stop\nstates: s0 s1\ninitial: s0\nresidence:\n"
                     "  s0 exp(1)\n  s1 exp(2)\ntransitions:\n  s0 go s1 1\n  s1 stop s0 1\n")
    code, report = run_json(capsys, "prob", "--model", model, "--word", "go", "--t", "1")
    assert code == 0
    assert report["result"]["word"] == "go"
    assert report["result"]["probability"] == pytest.approx(0.5 * (1 - 2.718281828459045 ** -1))
    code, report = run_json(capsys, "prob", "--model", model, "--word", "go,stop", "--t", "1")
    assert code == 0 and report["result"]["word"] == "go,stop"
    # at p-hat = 0 the Wilson bounds, and the half-width that is their far side, stay open
    code, report = run_json(capsys, "simulate", "--model", model, "--word", "go,stop",
                            "--t", "0.0001", "--samples", "1000")
    r = report["result"]
    assert code == 0 and r["word"] == "go,stop"
    assert r["ci99_wilson"][0] == 0.0 and 0.006 < r["ci99_wilson"][1] < 0.007
    assert r["estimate"] == 0.0 and r["ci99_halfwidth"] == r["ci99_wilson"][1]
    code, out = run(capsys, "simulate", "--model", model, "--word", "go,stop",
                    "--t", "0.0001", "--samples", "1000")
    assert code == 0 and "Wilson [0.000000, 0.006" in out


def test_report_shape(models, capsys):
    code, report = run_json(capsys, "validate", models / "fig2_U.smdp")
    assert report["schema"] == "smdpcheck-report/1"
    assert report["command"] == "validate"
    assert report["inputs"][0]["sha256"]
    assert "elapsed_seconds" in report


def test_missing_file_exits_2(capsys):
    assert main(["validate", "no_such_file.smdp"]) == 2


def test_model_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "syntax.smdp"
    bad.write_text("labels: a\nstates: s0\nnot_a_section: s0\n")
    code = main(["validate", str(bad)])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["faster-than", "fig2_U.smdp", "fig2_V.smdp", "--tpoints", "1"],
    ["faster-than", "fig2_U.smdp", "fig2_V.smdp", "--step", "0"],
    ["faster-than", "fig2_U.smdp", "fig2_V.smdp", "--depth", "0"],
    ["faster-than", "fig2_U.smdp", "fig2_V.smdp", "--tmax", "0"],
    ["prob", "--model", "fig2_U.smdp", "--word", "a", "--t", "-1"],
    ["prob", "--model", "fig2_U.smdp", "--word", "", "--t", "1"],
    ["simulate", "--model", "fig2_U.smdp", "--word", "a", "--t", "1", "--samples", "10"],
    ["simulate", "--model", "fig2_U.smdp", "--word", "a", "--t", "nan"],
    ["simulate", "--model", "fig2_U.smdp", "--word", "a", "--t", "-1"],
    ["monotonicity", "--fast", "fig2_U.smdp", "--slow", "fig2_V.smdp",
     "--ctx", "fig4_W_congruent.smdp", "--op", "min", "--mode", "bounded", "--n", "-1"],
    ["monotonicity", "--fast", "fig2_U.smdp", "--slow", "fig2_V.smdp",
     "--ctx", "fig4_W_congruent.smdp", "--op", "min", "--mode", "bounded", "--n", "0"],
    ["monotonicity", "--fast", "fig2_U.smdp", "--slow", "fig2_V.smdp",
     "--ctx", "fig4_W_congruent.smdp", "--op", "min", "--n", "3"],
])
def test_invalid_option_values_exit_2(models, capsys, argv):
    code = main([str(models / a) if a.endswith(".smdp") else a for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_io_errors_exit_2(models, capsys):
    """A file that cannot be read or written is an error (exit 2), never a verdict (exit 1)."""
    u, w = str(models / "fig2_U.smdp"), str(models / "fig4_W_congruent.smdp")
    for argv in (["validate", str(models)],
                 ["compose", "--left", u, "--right", w, "--op", "min", "--out", str(models)],
                 ["monotonicity", "--fast", u, "--slow", str(models / "fig2_V.smdp"), "--ctx", w,
                  "--op", "min", "--emit-smt", u]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err.startswith("error: [Errno ") and "Traceback" not in err, argv


def test_simulate_has_no_jobs_option(models, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", str(models / "fig2_U.smdp"), "--word", "a", "--t", "1",
              "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_report_field_names(models, capsys):
    """Every command's --json report: the same top-level keys, and each command's result keys."""
    u, v, w = (str(models / f"{name}.smdp") for name in ("fig2_U", "fig2_V", "fig4_W_congruent"))
    commands = {
        "validate": ([u], ["valid", "violations"]),
        "prob": (["--model", u, "--word", "aa", "--t", "2"], ["word", "t", "engine", "probability"]),
        "compose": (["--left", u, "--right", w, "--op", "min", "--out", str(models / "uw.smdp")],
                    ["out", "states", "labels"]),
        "faster-than": ([u, v, "--depth", "2"],
                        ["outcome", "meaning", "depth", "tmax", "tpoints", "step", "candidates",
                         "candidate_lattice", "candidates_truncated", "witness", "proof"]),
        "simulates": ([u, v], ["holds", "pairs"]),
        "bisimilar": ([u, v], ["holds", "pairs"]),
        "monotonicity": (["--fast", u, "--slow", v, "--ctx", w, "--op", "min"],
                         ["verdict", "mode", "bound", "violations", "smt_queries"]),
        "simulate": (["--model", u, "--word", "aa", "--t", "2", "--samples", "1000"],
                     ["word", "t", "samples", "seed", "estimate", "ci99_halfwidth", "ci99_wilson"]),
    }
    for command, (argv, result_keys) in commands.items():
        _, report = run_json(capsys, command, *argv)
        assert list(report) == ["schema", "command", "inputs", "result", "elapsed_seconds"], command
        assert report["command"] == command
        assert list(report["result"]) == result_keys, command


def test_json_reports_are_strict_at_infinite_time(models, capsys):
    """RFC 8259 has no Infinity: a non-finite t is written as the string "inf"."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    u = models / "fig2_U.smdp"
    prob = ["prob", "--model", u, "--word", "aa", "--t", "inf"]
    for argv in (prob, prob + ["--engine", "inductive"],
                 ["simulate", "--model", u, "--word", "aa", "--t", "inf", "--samples", "1000"]):
        assert main([str(a) for a in argv] + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert report["result"]["t"] == "inf", argv
