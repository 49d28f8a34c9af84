"""Replays a workload's first instances in the working tree and in a base
commit and compares every op's result bit for bit.

    python3 tools/replay_diff.py --workload anomaly-audit --seeds 1-3 --n 800 --base HEAD

Run it from the root of the repository.  BASE is exported with `git archive`
into a temporary directory, as `tools/bench_pairs.py` does.  For each seed,
both trees replay the first N instances of the seeded op stream of
`perfbench/workloads.py` (each tree its own copy, imported from its own
`src/`), with no time budget, and check each instance's answers as
`perfbench/run.py` does.  A result is taken apart into leaves, each with
its path and its exact text: floats by `repr`, schedulers by their weights,
models by their residences and transitions.  Per seed, the report gives the
number of results that differ, by op key, and each key's largest float
move: a change of a float leaf that is not a time or a scheduler weight.
It lists every other difference, such as an outcome, a witness word or
time, a scheduler or a leaf present on one side only, and every op whose
answer is wrong on either side.  The exit status is 1 when any result differs or any
answer is wrong, else 0.  The report gives no times.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

from bench_pairs import exported, parse_seeds

ROOT = Path.cwd()


def leaves(x, path: str = ""):
    """(path, exact text) of every leaf of an op's result: equal leaves mean equal bits."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        for f in dataclasses.fields(x):
            yield from leaves(getattr(x, f.name), f"{path}:{type(x).__name__}.{f.name}")
    elif isinstance(x, (list, tuple)):
        for i, v in enumerate(x):
            yield from leaves(v, f"{path}[{i}]")
    elif isinstance(x, dict):
        for k, v in x.items():
            yield from leaves(v, f"{path}[{k!r}]")
    elif type(x).__name__ == "Scheduler":
        yield from leaves(x.choice, f"{path}:Scheduler")
    elif type(x).__name__ == "Smdp":
        for name in ("labels", "states", "initial", "residence", "transitions"):
            yield from leaves(getattr(x, name), f"{path}:Smdp.{name}")
    else:
        yield path, repr(x)


def float_move(path: str, old: str, new: str):
    """|new - old| when both leaves are floats that are neither a time nor a
    scheduler weight, else None."""
    name = path.rsplit(".", 1)[-1]
    if ":Scheduler" in path or name == "t" or name.endswith("_t"):
        return None
    try:
        return abs(float(new) - float(old))
    except ValueError:
        return None


def run_ops(inst, results: dict):
    """Runs an instance's ops in order, each op's result into `results`.  An op
    that raised is left out of `results`, and an op that needs one left out is
    not run.  Yields (op key, its result or the exception it raised, its CPU s
    by `time.process_time`) per op, and (op key, None, None) per op not run."""
    for op in inst.ops:
        if any(key not in results for key in op.needs):
            yield op.key, None, None
            continue
        start = time.process_time()
        try:
            results[op.key] = value = op.run(results)
        except Exception as exc:  # a raised op is a result, and a wrong one
            value = exc
        yield op.key, value, time.process_time() - start


def emit(workload: str, seed: int, n: int) -> None:
    """Replays the first n instances of this tree's stream; one JSON line per op."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    stream = workloads.streams(ROOT / "src" / "smdpcheck" / "corpus")[workload](seed)
    for _, inst in zip(range(n), stream):
        results = {}
        for key, value, seconds in run_ops(inst, results):
            if seconds is None:
                print(json.dumps([inst.ident, key, "skipped"]))
                continue
            if isinstance(value, Exception):
                print(json.dumps([inst.ident, key, "wrong", f"raised {type(value).__name__}: {value}"]))
            print(json.dumps([inst.ident, key, list(leaves(value))]))
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


def summary(items: list, key: str) -> str:
    """One side of a sub-result that only one side has: its plain leaves by
    name, and how many scheduler weights it holds."""
    if not items:
        return "-"
    if len(items) == 1 and items[0][0] == key:
        return items[0][1]
    plain = [f"{path.rsplit('.', 1)[-1]}={text}" for path, text in items if ":Scheduler" not in path]
    weights = len(items) - len(plain)
    return "(" + ", ".join(plain + [f"{weights} scheduler weights"] * bool(weights)) + ")"


def differences(base: list, new: list):
    """(largest float move, its path, the other differences) of one op's leaves."""
    old, now = dict(map(tuple, base)), dict(map(tuple, new))
    move, where, other = 0.0, None, []
    for path, text in base:
        if path in now and now[path] != text:
            size = float_move(path, text, now[path])
            if size is None:
                other.append(f"{path or 'value'}: {text} -> {now[path]}")
            elif size >= move:
                move, where = size, path
    # leaves on one side only, grouped under the shortest one-sided path that prefixes them
    one_sided = [(path, "base", text) for path, text in base if path not in now]
    one_sided += [(path, "new", text) for path, text in new if path not in old]
    groups = {}
    for path, side, text in one_sided:
        key = min((q for q, _, _ in one_sided if path.startswith(q)), key=len)
        groups.setdefault(key, {"base": [], "new": []})[side].append((path, text))
    for key, sides in groups.items():
        other.append(f"{key or 'value'}: {summary(sides['base'], key)} -> {summary(sides['new'], key)}")
    return move, where, other


def compare(workload: str, seed: int, n: int, base: Path) -> int:
    """Runs both trees at once; prints every differing result and every wrong op."""
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
    if len(results["base"]) != len(results["new"]):
        print(f"seed {seed}: {len(results['base'])} results on base, {len(results['new'])} on new")
        faults += 1
    by_key, largest = {}, {}  # op key -> (largest float move, where)
    for (ident, key, old), (ident_new, key_new, now) in zip(results["base"], results["new"]):
        if (ident, key) != (ident_new, key_new):
            print(f"seed {seed}: the op streams part at {ident}/{key} against {ident_new}/{key_new}")
            faults += 1
            break
        if old == now:
            continue
        by_key[key] = by_key.get(key, 0) + 1
        if isinstance(old, str) or isinstance(now, str):  # one side skipped the op
            print(f"seed {seed}: {ident}/{key}: {old if isinstance(old, str) else 'ran'} -> "
                  f"{now if isinstance(now, str) else 'ran'}")
            continue
        move, where, other = differences(old, now)
        if where is not None and move >= largest.get(key, (0.0,))[0]:
            largest[key] = move, f"{ident}/{key} {where}".rstrip()
        for text in other:
            print(f"seed {seed}: {ident}/{key} {text}")
    faults += sum(by_key.values())
    wrong = sum(len(r) == 4 for recs in records.values() for r in recs)
    print(f"seed {seed}: {len(results['new'])} ops in {n} instances, "
          f"{sum(by_key.values())} differ"
          + (" (" + ", ".join(f"{k} {c}" for k, c in sorted(by_key.items())) + ")" if by_key else "")
          + "".join(f", largest float move of {key} {move:.3g} at {where}"
                    for key, (move, where) in sorted(largest.items()))
          + f", {wrong} wrong")
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
    with exported(args.base, "replay-base-") as base:
        for seed in args.seeds:
            faults += compare(args.workload, seed, args.n, base)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
