"""Paired benchmark runs of the working tree against a base commit.

    python3 tools/bench_pairs.py --workload deep-paths --seeds 631-635 --base HEAD

Run it from the root of the repository.  BASE is exported with `git archive`
into a temporary directory, so the repository gains no worktree or branch.
For each seed, `perfbench/run.py --trace 0` runs once in each tree; the base
runs first for the first seed, the working tree for the second, and so on,
so that drift over time falls on both sides alike.  The summary gives
per end-to-end metric the median and quartiles of each side and the pairs in
which the working tree was better, in all and split by whether it ran first
or second, and per side the runs whose answers were not correct and the
failed ops; the last line is every run as JSON.  The same summary, both
commits and every run go to BENCH_<workload>.json at the root of the
repository.  The exit status is 1 when any run, on either side, was
not correct or had failed ops: its metrics do not measure the same work.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()


def parse_seeds(text: str) -> list:
    """'631-635' or '7,11,12' (or a mix) -> a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


@contextlib.contextmanager
def exported(ref: str, prefix: str):
    """A temporary directory holding the files of commit `ref`, from `git archive`."""
    with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
        archive = subprocess.run(["git", "archive", ref], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        yield Path(tmp)


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench/run.py failed in {tree} (seed {seed}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"warning: seed {seed} in {tree}: correct={result['correct']}, "
              f"failed={result['failed']}", file=sys.stderr)
    run = {key: m["value"] for key, m in result["metrics"].items()}
    run.update(correct=result["correct"], failed=result["failed"])
    return run


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs: list, better: dict) -> dict:
    """Per end-to-end metric: each side's quartiles and the pairs in which
    the working tree was better, in all and split by which side ran first,
    so that an order effect shows."""
    summary = {}
    for key, direction in better.items():
        if key not in pairs[0]["base"]:
            continue
        old = [p["base"][key] for p in pairs]
        new = [p["new"][key] for p in pairs]
        wins = [p["first"] for p, o, n in zip(pairs, old, new) if ((n < o) if direction == "lower" else (n > o))]
        summary[key] = {"better": direction, "base_q1_median_q3": quartiles(old),
                        "new_q1_median_q3": quartiles(new), "new_better_pairs": len(wins),
                        "new_better_when_first": wins.count("new"),
                        "new_better_when_second": wins.count("base")}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    pairs = []
    with exported(args.base, "bench-base-") as base:
        for i, seed in enumerate(args.seeds):
            order = (("base", base), ("new", ROOT)) if i % 2 == 0 else (("new", ROOT), ("base", base))
            pair = {"seed": seed, "first": order[0][0]}
            for side, tree in order:
                pair[side] = run_side(tree, args.workload, seed, args.seconds)
            pairs.append(pair)
            print(f"seed {seed} ({pair['first']} first): " + ", ".join(
                f"{k} {pair['base'][k]:.4g} -> {pair['new'][k]:.4g}" for k in better
                if k in pair["base"]), file=sys.stderr)

    summary = summarize(pairs, better)
    firsts = sum(p["first"] == "new" for p in pairs)
    print(f"{args.workload}, {len(pairs)} pairs, base {args.base}, {args.seconds:g} s runs")
    print(f"{'metric':14s} {'base q1/median/q3':>30s} {'new q1/median/q3':>30s} {'new better':>11s}"
          f" {'new first':>10s} {'new second':>10s}")
    for key, row in summary.items():
        print(f"{key:14s} {'/'.join(f'{q:.4g}' for q in row['base_q1_median_q3']):>30s} "
              f"{'/'.join(f'{q:.4g}' for q in row['new_q1_median_q3']):>30s} "
              f"{row['new_better_pairs']:>5d} of {len(pairs)} {row['new_better_when_first']:>4d} of {firsts}"
              f" {row['new_better_when_second']:>4d} of {len(pairs) - firsts}")
    faults = {side: (sum(not p[side]["correct"] for p in pairs), sum(p[side]["failed"] for p in pairs))
              for side in ("base", "new")}
    print("not correct runs / failed ops: " + ", ".join(
        f"{side} {bad} / {failed}" for side, (bad, failed) in faults.items()))
    print(json.dumps(pairs))
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seconds": args.seconds, "seeds": args.seeds,
        "base": {"ref": args.base, "commit": git("rev-parse", args.base)},
        "new": {"commit": git("rev-parse", "HEAD"), "uncommitted_changes": bool(git("status", "--porcelain"))},
        "metrics": summary,
        "not_correct_runs_and_failed_ops": {side: list(f) for side, f in faults.items()},
        "pairs": pairs,
    }, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 1 if any(bad or failed for bad, failed in faults.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
