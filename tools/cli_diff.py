"""Runs a fixed list of CLI invocations in the working tree and in a base
commit and compares what each prints, its exit code and the files it writes.

    python3 tools/cli_diff.py --base HEAD

Run it from the root of the repository.  BASE is exported with `git archive`,
as `tools/bench_pairs.py` does.  Each case runs `python3 -m smdpcheck.cli`
from its tree's own `src/`, in a fresh directory holding a copy of the model
corpus, three hand-made models and a scheduler with a NaN weight, once as
written and once with `--json` (help cases run once).  `elapsed_seconds` is dropped from a JSON report before
the comparison; every other byte of stdout and stderr counts, and so does
every file a case writes (`compose --out`, `monotonicity --emit-smt`).  The
report lists each case that differs, with both sides; the exit status is 1
when any case differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import exported

ROOT = Path.cwd()

U, V, W = "fig2_U.smdp", "fig2_V.smdp", "fig4_W_congruent.smdp"
MONO = ["monotonicity", "--fast", U, "--slow", V, "--ctx", W, "--op", "min"]
SIM = ["simulate", "--model", U, "--word", "aa", "--t", "2", "--samples", "2000"]

CASES = [
    ["validate", U],
    ["validate", "fig3_V.smdp", "--scheduler", "fig3_V_half.sched"],
    ["validate", U, "--scheduler", "fig3_V_half.sched"],
    ["validate", "mass.smdp"],
    ["validate", "mass.smdp", "--scheduler", "fig3_V_half.sched"],
    ["validate", "syntax.smdp"],
    ["validate", "no_such_file.smdp"],
    ["prob", "--model", U, "--word", "aa", "--t", "2"],
    ["prob", "--model", U, "--word", "aa", "--t", "2", "--engine", "inductive"],
    ["prob", "--model", U, "--word", "aa", "--t", "0", "--engine", "inductive"],
    ["prob", "--model", "fig3_V.smdp", "--scheduler", "fig3_V_half.sched", "--word", "aa", "--t", "2"],
    ["prob", "--model", U, "--scheduler", "fig3_V_half.sched", "--word", "aa", "--t", "2"],
    ["prob", "--model", "branchy.smdp", "--word", "a,a", "--t", "1.5"],
    ["prob", "--model", U, "--word", "a", "--t", "-1"],
    ["prob", "--model", U, "--word", "", "--t", "1"],
    ["prob", "--model", U, "--word", "ab", "--t", "1"],
    ["compose", "--left", U, "--right", "fig4_W_product.smdp", "--op", "prodrate", "--out", "UW.smdp"],
    ["compose", "--left", U, "--right", W, "--op", "min", "--out", U],
    ["compose", "--left", "uniform_chain.smdp", "--right", "uniform_chain.smdp", "--op", "prodrate",
     "--out", "x.smdp"],
    ["faster-than", U, V, "--depth", "3"],
    ["faster-than", "--fast", "fig3_U.smdp", "--slow", "fig3_V.smdp", "--depth", "4", "--step", "0.5"],
    ["faster-than", "fig3_U.smdp", "--slow", "fig3_V.smdp", "--depth", "2", "--step", "0.5"],
    ["faster-than", "wide.smdp", "fig3_U.smdp", "--depth", "2"],
    ["faster-than", "fig3_V.smdp", "fig3_U.smdp", "--depth", "3", "--step", "0.5"],
    ["faster-than", U],
    ["faster-than", U, V, W],
    ["faster-than", U, V, "--tpoints", "1"],
    ["simulates", "fig3_U.smdp", "fig3_V.smdp"],
    ["simulates", "--left", U, "--right", V],
    ["bisimilar", "fig3_U.smdp", "fig3_V.smdp"],
    ["bisimilar", U, V],
    ["bisimilar", U],
    MONO,
    MONO + ["--mode", "bounded", "--all"],
    MONO + ["--mode", "bounded", "--n", "0"],
    MONO + ["--n", "3"],
    MONO[:2] + ["no_such_file.smdp"] + MONO[3:] + ["--n", "3"],
    ["faster-than", "no_such_file.smdp", V],
    ["monotonicity", "--fast", U, "--slow", V, "--ctx", "fig4_W_product.smdp", "--ctx2", W,
     "--op", "prodrate", "--all", "--emit-smt", "queries"],
    ["monotonicity", "--fast", U, "--slow", V, "--ctx", "fig4_W_product.smdp",
     "--op", "prodrate", "--mode", "bounded", "--n", "3", "--all"],
    SIM,
    SIM[:-2] + ["--samples", "10"],
    SIM[:-4] + ["--t", "nan"],
    SIM[:-4] + ["--t", "-1"],
    SIM + ["--jobs", "2"],
    ["prob", "--model", U, "--word", "aa", "--t", "inf", "--engine", "inductive"],
    ["prob", "--model", U, "--word", "aa", "--t", "inf"],
    ["simulate", "--model", U, "--word", "aa", "--t", "inf", "--samples", "2000"],
    ["prob", "--model", "branchy.smdp", "--word", "aa", "--t", "1e308", "--engine", "inductive"],
    ["validate", "."],
    ["compose", "--left", U, "--right", W, "--op", "min", "--out", "."],
    MONO + ["--emit-smt", U],
    ["simulate", "--model", "fig3_V.smdp", "--scheduler", "fig3_V_half.sched", "--word", "ba",
     "--t", "3", "--samples", "3000", "--seed", "7"],
    ["validate", U, "--scheduler", "nan.sched"],
    ["prob", "--model", U, "--scheduler", "nan.sched", "--word", "aa", "--t", "2"],
    ["prob", "--model", U, "--scheduler", "nan.sched", "--word", "aa", "--t", "2", "--engine", "inductive"],
    ["simulate", "--model", U, "--scheduler", "nan.sched", "--word", "aa", "--t", "2", "--samples", "2000"],
]
HELP = [["--help"], ["--version"]] + [[cmd, "--help"] for cmd in (
    "validate", "prob", "compose", "faster-than", "simulates", "bisimilar", "monotonicity", "simulate")]


def setup(workdir: Path, tree: Path):
    for f in (tree / "src" / "smdpcheck" / "corpus").iterdir():
        if f.suffix in (".smdp", ".sched"):
            shutil.copy(f, workdir / f.name)
    (workdir / "mass.smdp").write_text("labels: a\nstates: s0\ninitial: s0\nresidence:\n"
                                       "  s0 exp(1)\ntransitions:\n  s0 a s0 1.2\n")
    (workdir / "syntax.smdp").write_text("labels: a\nstates: s0\nnot_a_section: s0\n")
    (workdir / "nan.sched").write_text("u0 a nan\nu1 a 1\nu2 a 1\n")
    names = [f"s{i}" for i in range(6)]
    (workdir / "wide.smdp").write_text(
        "labels: a b\nstates: " + " ".join(names) + "\ninitial: s0\nresidence:\n"
        + "".join(f"  {s} exp(2)\n" for s in names) + "transitions:\n"
        + "".join(f"  {s} {a} {t} 1\n" for s, t in zip(names, names[1:] + names[:1]) for a in "ab"))


def without_elapsed(text: str) -> str:
    try:
        report = json.loads(text)
    except ValueError:
        return text
    if not isinstance(report, dict):  # a human line such as "0.515600" parses too
        return text
    report.pop("elapsed_seconds", None)
    return json.dumps(report, indent=2)


def run_case(tree: Path, argv: list) -> dict:
    """stdout, stderr, exit code and written files of one invocation in a fresh directory."""
    with tempfile.TemporaryDirectory(prefix="cli_diff_") as tmp:
        workdir = Path(tmp)
        setup(workdir, tree)
        before = {p: p.read_bytes() for p in workdir.iterdir()}
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        proc = subprocess.run([sys.executable, "-m", "smdpcheck.cli", *argv], cwd=workdir, env=env,
                              capture_output=True, text=True, check=False)
        written = {str(p.relative_to(workdir)): p.read_text() for p in sorted(workdir.rglob("*"))
                   if p.is_file() and before.get(p) != p.read_bytes()}
    return {"exit": proc.returncode, "stdout": without_elapsed(proc.stdout),
            "stderr": proc.stderr, "files": written}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="commit to compare the working tree with")
    args = ap.parse_args()
    invocations = [c for case in CASES for c in (case, case + ["--json"])] + HELP
    differ = 0
    with exported(args.base, "cli_diff_base_") as base:
        for argv in invocations:
            old, new = run_case(base, argv), run_case(ROOT, argv)
            if old != new:
                differ += 1
                print(f"DIFFERS: smdpcheck {' '.join(argv)}")
                for key in old:
                    if old[key] != new[key]:
                        print(f"  {key}: base {old[key]!r}\n  {key}: work {new[key]!r}")
    print(f"{differ} of {len(invocations)} invocations differ from {args.base}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
