"""Replays a workload's first instances in the working tree and in a base
commit and compares every op's result bit for bit.

    python3 tools/replay_diff.py --workload anomaly-audit --seeds 1-3 --n 800 --base HEAD

Run it from the root of the repository.  BASE is exported with `git archive`
into a temporary directory, as `tools/bench_pairs.py` does.  For each seed,
both trees replay the first N instances of the seeded op stream of
`perfbench/workloads.py` (each tree its own copy, imported from its own
`src/`), with no time budget, and check each instance's answers as
`perfbench/run.py` does.  A result is shown exactly: floats by `repr`,
schedulers by their weights, models by their residences and transitions.
The report names the first op whose result differs, per seed, and every op
whose answer is wrong on either side.  The exit status is 1 when any result
differs or any answer is wrong, else 0.  Nothing is timed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import parse_seeds

ROOT = Path.cwd()


def show(x) -> str:
    """An exact text form of an op's result: equal texts mean equal bits."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return type(x).__name__ + "(" + ", ".join(
            f"{f.name}={show(getattr(x, f.name))}" for f in dataclasses.fields(x)) + ")"
    if isinstance(x, (list, tuple)):
        return "(" + ", ".join(map(show, x)) + ")"
    if isinstance(x, dict):
        return "{" + ", ".join(f"{show(k)}: {show(v)}" for k, v in x.items()) + "}"
    if type(x).__name__ == "Scheduler":
        return f"Scheduler({show(x.choice)})"
    if type(x).__name__ == "Smdp":
        return (f"Smdp({show(x.labels)}, {show(x.states)}, {x.initial!r}, "
                f"{show(x.residence)}, {show(x.transitions)})")
    return repr(x)


def emit(workload: str, seed: int, n: int) -> None:
    """Replays the first n instances of this tree's stream; one JSON line per op."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    stream = workloads.streams(ROOT / "src" / "smdpcheck" / "corpus")[workload](seed)
    for _, inst in zip(range(n), stream):
        results = {}
        for op in inst.ops:
            if any(key not in results for key in op.needs):
                print(json.dumps([inst.ident, op.key, "skipped"]))
                continue
            try:
                results[op.key] = value = op.run(results)
            except Exception as exc:  # a raised op is a result, and a wrong one
                value = exc
                print(json.dumps([inst.ident, op.key, "wrong", f"raised {type(exc).__name__}: {exc}"]))
            print(json.dumps([inst.ident, op.key, show(value)]))
        try:
            wrong = inst.check(results)
        except Exception as exc:
            wrong = {"check": f"raised {type(exc).__name__}: {exc}"}
        for key, why in wrong.items():
            print(json.dumps([inst.ident, key, "wrong", why]))


def replay(tree: Path, workload: str, seed: int, n: int) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--emit",
                             "--workload", workload, "--seeds", str(seed), "--n", str(n)],
                            cwd=tree, stdout=subprocess.PIPE, text=True)


def compare(workload: str, seed: int, n: int, base: Path) -> int:
    """Runs both trees at once; prints the first differing result and every wrong op."""
    procs = {side: replay(tree, workload, seed, n) for side, tree in (("base", base), ("new", ROOT))}
    lines = {side: proc.communicate()[0].splitlines() for side, proc in procs.items()}
    for side, proc in procs.items():
        if proc.returncode:
            raise SystemExit(f"seed {seed}: the {side} replay exited with {proc.returncode}")
    records = {side: [json.loads(line) for line in out] for side, out in lines.items()}
    faults = 0
    for side, recs in records.items():
        for ident, key, _, why in (r for r in recs if len(r) == 4):
            print(f"seed {seed} {side}: wrong {ident}/{key}: {why}")
            faults += 1
    results = {side: [r for r in recs if len(r) == 3] for side, recs in records.items()}
    pairs = list(zip(results["base"], results["new"]))
    first = next((pair for pair in pairs if pair[0] != pair[1]), None)
    if first is None and len(results["base"]) != len(results["new"]):
        first = ("op count", len(results["base"])), ("op count", len(results["new"]))
    if first is not None:
        print(f"seed {seed}: first difference\n  base {first[0]}\n  new  {first[1]}")
        faults += 1
    print(f"seed {seed}: {len(pairs)} ops in {n} instances, "
          f"{'differ' if first is not None else 'identical'}, "
          f"{sum(len(r) == 4 for recs in records.values() for r in recs)} wrong")
    return faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--n", required=True, type=int, help="instances per seed")
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        for seed in args.seeds:
            emit(args.workload, seed, args.n)
        return 0
    faults = 0
    with tempfile.TemporaryDirectory(prefix="replay-base-") as tmp:
        base = Path(tmp)
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        for seed in args.seeds:
            faults += compare(args.workload, seed, args.n, base)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
