"""Op CPU times of a workload's first instances, working tree against a base commit.

    python3 tools/op_times.py --workload deep-paths --seeds 7 --n 30 --reps 5 --base HEAD

Run it from the root of the repository.  BASE is exported with `git archive`
into a temporary directory, as `tools/bench_pairs.py` does.  Each rep replays
the first N instances of each seed's op stream once in each tree, one tree
after the other (never both at once, so that they share no CPU), the base
first in even reps and the working tree first in odd ones.  Each replay is a
fresh process that imports its tree's own `src/` and runs each instance's ops
by `tools/replay_diff.py`'s `run_ops`.  An op is timed by `time.process_time`,
the CPU time of the replaying process, so other processes on the host add
little to it, and import and setup time are left out.  The report gives per
op key, and for all ops, the smallest total over the reps on each side, and
their ratio.  An op that some run skips, because an op it needs raised, is
reported as missing on that side, and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench_pairs import exported, parse_seeds
from replay_diff import run_ops

ROOT = Path.cwd()


def emit(workload: str, seeds: list, n: int) -> None:
    """Replays the first n instances of each seed in this tree; prints {op key: CPU s} as JSON."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    stream = workloads.streams(ROOT / "src" / "smdpcheck" / "corpus")[workload]
    totals: dict = {}
    for seed in seeds:
        for _, inst in zip(range(n), stream(seed)):
            for key, _, seconds in run_ops(inst, {}):  # an op that raised is timed all the same
                if seconds is not None:
                    totals[key] = totals.get(key, 0.0) + seconds
    print(json.dumps(totals))


def replay(tree: Path, workload: str, seeds: list, n: int) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--emit", "--workload", workload,
                           "--seeds", ",".join(map(str, seeds)), "--n", str(n)],
                          cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode:
        raise SystemExit(f"the replay in {tree} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def least_times(runs: dict) -> dict:
    """{side: {op key: least CPU s over the side's runs}}, for every key of any run,
    then "all ops", the least total of a run.  A key that some run of a side lacks
    (the op was skipped because an op it needs raised) is None on that side."""
    keys = list(dict.fromkeys(k for side in runs.values() for run in side for k in run))
    best = {side: {k: min(run[k] for run in side_runs) if all(k in run for run in side_runs) else None
                   for k in keys}
            for side, side_runs in runs.items()}
    for side, side_runs in runs.items():
        best[side]["all ops"] = min(sum(run.values()) for run in side_runs)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--n", required=True, type=int, help="instances per seed")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.workload, args.seeds, args.n)
        return 0
    runs = {"base": [], "new": []}
    with exported(args.base, "op-times-base-") as base:
        for rep in range(args.reps):
            order = (("base", base), ("new", ROOT)) if rep % 2 == 0 else (("new", ROOT), ("base", base))
            for side, tree in order:
                runs[side].append(replay(tree, args.workload, args.seeds, args.n))
            print(f"rep {rep + 1}: all ops {sum(runs['base'][-1].values()):.3f} s base, "
                  f"{sum(runs['new'][-1].values()):.3f} s new", file=sys.stderr)
    best = least_times(runs)
    keys = list(best["base"])[:-1]
    print(f"{args.workload}, seeds {','.join(map(str, args.seeds))}, first {args.n} instances, "
          f"least CPU s of {args.reps} reps, base {args.base}")
    print(f"{'op':16s} {'base':>9s} {'new':>9s} {'new/base':>9s}")
    missing = [key for key in keys if None in (best["base"][key], best["new"][key])]
    for key in keys + ["all ops"]:
        old, new = best["base"][key], best["new"][key]
        if key in missing:
            print(f"{key:16s} {'missing' if old is None else f'{old:.3f}':>9s} "
                  f"{'missing' if new is None else f'{new:.3f}':>9s}")
        else:
            print(f"{key:16s} {old:9.3f} {new:9.3f} {new / old if old else float('nan'):9.3f}")
    if missing:
        print(f"ops missing from some run: {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
