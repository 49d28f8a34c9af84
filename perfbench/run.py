"""Runs one workload of the smdpcheck benchmark and prints every metric.

    python3 perfbench/run.py --workload ft-sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the package is imported from
./src and nothing else.  One client in one process replays the workload's
seeded op stream back to back (a closed loop) until the ops have taken
`--seconds` of measured time; each op's answer is checked outside the timed
region.  Timings come from the whole rounds of the stream that the run
completed, so that every run times the same mix.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  A fuller report goes
to perfbench/out/.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOADS = ("ft-sweep", "deep-paths", "anomaly-audit")
SETUP_REPEATS = 3
SHOWN_PROBLEMS = 5  # error and wrong-answer examples printed per run


def measure_setup_s() -> float:
    """Median wall time of a fresh interpreter importing the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import smdpcheck"], cwd=ROOT, env=env,
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Tally:
    """Outcome of replaying a prefix of one op stream."""

    def __init__(self):
        self.latencies = []
        self.rounds = []         # round of each op's instance
        self.stop_round = None   # round in which the budget ran out
        self.op_ids = []
        self.busy_s = 0.0
        self.errors = collections.Counter()
        self.wrong = {}          # "instance/op" -> reason
        self.check_errors = {}   # instance -> exception raised by its check
        self.examples = []
        self.skipped = 0         # ops whose input op raised
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + len(self.wrong)

    def timed(self) -> list:
        """Latencies of the ops in whole rounds, so that every run times the
        same mix of shapes; all of them if no round was completed."""
        kept = [s for s, r in zip(self.latencies, self.rounds) if r < self.stop_round]
        return kept or self.latencies


def replay(stream, cdf_eval, budget_s=None, max_ops=None, tracer=None) -> Tally:
    """Runs ops until `budget_s` of op time or `max_ops` ops, checking each
    instance's answers after its ops."""
    tally = Tally()
    clock = time.perf_counter
    for inst in stream:
        results = {}
        done = False
        for op in inst.ops:
            done = ((budget_s is not None and tally.busy_s >= budget_s)
                    or (max_ops is not None and tally.attempted >= max_ops))
            if done:
                tally.stop_round = inst.round
                break
            if any(key not in results for key in op.needs):
                tally.skipped += 1
                continue
            if tracer is not None:
                tracer.op_id = f"{inst.ident}/{op.key}"
                tracer.enabled = True
            before = cdf_eval.cache_info()
            start = clock()
            try:
                value = op.run(results)
            except Exception as exc:  # an op that raises is a failed op, counted by type
                value = exc
            elapsed = clock() - start
            after = cdf_eval.cache_info()
            if tracer is not None:
                tracer.enabled = False
            tally.latencies.append(elapsed)
            tally.rounds.append(inst.round)
            tally.op_ids.append(f"{inst.ident}/{op.key}")
            tally.busy_s += elapsed
            tally.cache_hits += after.hits - before.hits
            tally.cache_misses += after.misses - before.misses
            if isinstance(value, Exception):
                tally.errors[type(value).__name__] += 1
                if len(tally.examples) < SHOWN_PROBLEMS:
                    tally.examples.append(f"{inst.ident}/{op.key}: {type(value).__name__}: {value}")
            else:
                results[op.key] = value
        try:
            for key, why in inst.check(results).items():
                tally.wrong[f"{inst.ident}/{key}"] = why
        except Exception as exc:  # an answer that could not be checked is not correct
            tally.check_errors[inst.ident] = f"{type(exc).__name__}: {exc}"
        if done:
            break
    return tally


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in (SRC / "smdpcheck").rglob("*") if p.suffix in (".py", ".smdp", ".sched")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp(args, tally) -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "affinity_count": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "networkx": networkx.__version__,
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "op_counts": dict(sorted(collections.Counter(i.rsplit("/", 1)[1] for i in tally.op_ids).items())),
        "ops_skipped": tally.skipped,
        "ops_timed": len(tally.timed()),
        "rounds_timed": tally.stop_round,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(tally, setup_s) -> dict:
    timed = tally.timed()
    deciles = statistics.quantiles(timed, n=10)
    return {
        "setup_s": _metric(setup_s, "s"),
        "op_p50_ms": _metric(deciles[4] * 1e3, "ms"),
        "op_p90_ms": _metric(deciles[8] * 1e3, "ms"),
        "ops_per_s": _metric(len(timed) / sum(timed), "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# self time is reported in the result line only for the functions every
# workload calls; the others read 0 s where a workload never calls them
SELF_TIME_IN_RESULT = ("model.parse_model", "relations.faster_than_bounded",
                       "distributions.cdf_eval", "distributions.convolve")


def per_layer_metrics(tracer, tally, overhead_ratio):
    """(metrics for the result line, full table for the report)."""
    from spans import TRACED

    full = {}
    for name in TRACED:
        full[f"{name}.calls"] = _metric(tracer.calls[name], "count")
        full[f"{name}.self_s"] = _metric(tracer.self_s[name], "s")
    lookups = tally.cache_hits + tally.cache_misses
    mc_s = tracer.incl_s["montecarlo.estimate_cylinder"]
    full.update({
        "relations.faster_than_bounded.refuted": _metric(tracer.refuted, "count"),
        "cylinders.word_terms.laws": _metric(tracer.laws, "count"),
        "distributions.cdf_eval.misses": _metric(tally.cache_misses, "count"),
        "distributions.cdf_eval.hit_ratio": _metric(tally.cache_hits / lookups if lookups else 0.0, "ratio"),
        "montecarlo.estimate_cylinder.samples_per_s": _metric(tracer.samples / mc_s if mc_s else 0.0, "1/s"),
        "ops.attempted": _metric(tally.attempted, "count"),
        "ops.failed": _metric(tally.failed, "count"),
        "ops.wrong": _metric(len(tally.wrong), "count"),
        "ops.raised": _metric(sum(tally.errors.values()), "count"),
        "trace.overhead_ratio": _metric(overhead_ratio, "ratio"),
    })
    shown = {k: v for k, v in full.items()
             if not k.endswith(".self_s") or k[:-len(".self_s")] in SELF_TIME_IN_RESULT}
    return shown, full


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "smdpcheck" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'smdpcheck'}; run from the root of a source checkout",
              file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup_s()
    sys.path.insert(0, str(SRC))
    import smdpcheck

    if SRC.resolve() not in Path(smdpcheck.__file__).resolve().parents:
        print(f"error: imported smdpcheck from {smdpcheck.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    stream = workloads.streams(SRC / "smdpcheck" / "corpus")[args.workload]
    cdf_eval = smdpcheck.distributions.cdf_eval
    cdf_eval.cache_clear()
    tally = replay(stream(args.seed), cdf_eval, budget_s=args.seconds / (1 + args.trace))
    report = {}
    if args.trace:
        # replay the same ops traced, from the same cold cache, to get
        # per-layer numbers and the tracing overhead
        untraced_s = tally.busy_s
        cdf_eval.cache_clear()
        tracer = Tracer()
        tracer.install()
        try:
            tally = replay(stream(args.seed), cdf_eval, max_ops=tally.attempted, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics, report["per_layer"] = per_layer_metrics(tracer, tally, tally.busy_s / untraced_s)
    else:
        metrics = end_to_end_metrics(tally, setup_s)
    correct = not tally.errors and not tally.wrong and not tally.check_errors

    report.update(stamp=stamp(args, tally), metrics=metrics, errors=dict(tally.errors),
                  error_examples=tally.examples, wrong=tally.wrong, check_errors=tally.check_errors,
                  op_ms=[[op, s * 1e3] for op, s in zip(tally.op_ids, tally.latencies)])
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if args.trace:
        tracer.write_spans(OUT_DIR / f"{name}-spans.json")

    print("stamp " + json.dumps(report["stamp"]))
    for key, metric in report.get("per_layer", metrics).items():
        print(f"{key:52s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"ops attempted {tally.attempted}, failed {tally.failed} "
          f"(raised {sum(tally.errors.values())}, wrong {len(tally.wrong)}), skipped {tally.skipped}")
    for line in tally.examples:
        print(f"  raised: {line}")
    for key, why in list(tally.wrong.items())[:SHOWN_PROBLEMS]:
        print(f"  wrong: {key}: {why}")
    for key, why in tally.check_errors.items():
        print(f"  check raised: {key}: {why}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
