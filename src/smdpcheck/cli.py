"""Command-line frontend.

Exit codes: 0 = verdict holds / value computed, 1 = refuted or failing
verdict (witness in the report), 2 = usage or model error, invalid option
values included.  Every command accepts --json for machine-readable reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

from . import __version__
from .composition import compose
from .cylinders import TimeBoundedCylinder, prob_cylinder_inductive, prob_cylinder_paths
from .distributions import CompositionOperator, GridSpec, compose_residence
from .errors import NotExpressible, SmdpcheckError
from .model import (
    Scheduler,
    parse_model,
    parse_scheduler,
    serialize_model,
    uniform_scheduler,
    validate_model,
    validate_scheduler,
)
from .monotonicity import check_monotonicity_bounded, check_strong_monotonicity, path_bound
from .montecarlo import estimate_cylinder, wilson_bounds
from .relations import SchedulerSearchSpec, bisimilar, faster_than_bounded, format_word, simulates
from .smt import export_smt_dominance

REPORT_SCHEMA = "smdpcheck-report/1"

_OPS = {"min": CompositionOperator.MINIMUM, "max": CompositionOperator.MAXIMUM,
        "prodrate": CompositionOperator.PRODUCT_RATE}


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _parse_word(text, labels):
    """Comma-separated if there is a comma or a multi-character label, else a label per character."""
    multi = "," in text or any(len(a) > 1 for a in labels)
    return tuple(text.split(",")) if multi else tuple(text)


def _load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        m = parse_model(fh.read())
    problems = validate_model(m)
    if problems:
        raise SmdpcheckError(
            f"{path}: invalid model:\n  " + "\n  ".join(str(p) for p in problems))
    return m


def _load_scheduler(path, model):
    with open(path, "r", encoding="utf-8") as fh:
        sch = parse_scheduler(fh.read())
    problems = validate_scheduler(model, sch)
    if problems:
        raise SmdpcheckError(
            f"{path}: invalid scheduler:\n  " + "\n  ".join(str(p) for p in problems))
    return sch


class _Report:
    def __init__(self, command, paths):
        self.t0 = time.monotonic()
        self.data = {
            "schema": REPORT_SCHEMA,
            "command": command,
            "inputs": [{"path": p, "sha256": _sha256(p)} for p in paths],
        }

    def finish(self, **fields):
        self.data.update(fields)
        self.data["elapsed_seconds"] = round(time.monotonic() - self.t0, 6)
        return self.data


def _emit(args, report, human_lines):
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in human_lines:
            print(line)


def _witness_dict(w):
    if w is None:
        return None
    return {
        "slow_scheduler": w.slow_scheduler.choice,
        "word": w.word,
        "t": w.t,
        "prob_fast": w.prob_fast,
        "prob_slow": w.prob_slow,
        "fast_scheduler": w.fast_scheduler.choice,
        "kind": w.kind,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args):
    rep = _Report("validate", [args.model] + ([args.scheduler] if args.scheduler else []))
    with open(args.model, "r", encoding="utf-8") as fh:
        m = parse_model(fh.read())
    problems = [str(p) for p in validate_model(m)]
    if args.scheduler and not problems:
        with open(args.scheduler, "r", encoding="utf-8") as fh:
            sch = parse_scheduler(fh.read())
        problems += [str(p) for p in validate_scheduler(m, sch)]
    ok = not problems
    report = rep.finish(result={"valid": ok, "violations": problems})
    _emit(args, report, ["valid" if ok else "invalid:"] + [f"  {p}" for p in problems])
    return 0 if ok else 2


def _cmd_prob(args):
    rep = _Report("prob", [args.model] + ([args.scheduler] if args.scheduler else []))
    m = _load_model(args.model)
    sch = _load_scheduler(args.scheduler, m) if args.scheduler else uniform_scheduler(m)
    word = _parse_word(args.word, m.labels)
    engine = prob_cylinder_paths if args.engine == "paths" else prob_cylinder_inductive
    value = engine(m, sch, m.initial, TimeBoundedCylinder(word, args.t))
    report = rep.finish(result={"word": format_word(word), "t": args.t,
                                "engine": args.engine, "probability": value})
    _emit(args, report, [f"{value:.6f}"])
    return 0


def _cmd_compose(args):
    rep = _Report("compose", [args.left, args.right])
    left = _load_model(args.left)
    right = _load_model(args.right)
    product = compose(left, right, _OPS[args.op], project=args.project)
    text = serialize_model(product)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    report = rep.finish(result={"out": args.out, "states": len(product.states),
                                "labels": list(product.labels)})
    _emit(args, report, [f"wrote {args.out} ({len(product.states)} states)"])
    return 0


def _resolve_pair(args, flag_a, flag_b):
    pos = list(args.models or [])
    a = getattr(args, flag_a)
    b = getattr(args, flag_b)
    if a is None and len(pos) >= 1:
        a = pos.pop(0)
    if b is None and len(pos) >= 1:
        b = pos.pop(0)
    if a is None or b is None or pos:
        raise SmdpcheckError(f"expected two models (positionally or via --{flag_a}/--{flag_b})")
    return a, b


def _cmd_faster_than(args):
    fast_path, slow_path = _resolve_pair(args, "fast", "slow")
    rep = _Report("faster-than", [fast_path, slow_path])
    fast = _load_model(fast_path)
    slow = _load_model(slow_path)
    grid = GridSpec(t_max=args.tmax, points=args.tpoints, geometric=False)
    search = SchedulerSearchSpec(step=args.step)
    verdict = faster_than_bounded(fast, slow, args.depth, grid, search)
    report = rep.finish(result={
        "outcome": verdict.outcome,
        "meaning": ("Refuted: the witness re-verifies, and no fast scheduler in the explored "
                    "lattice plus coordinate ascent matched this adversary; "
                    "NotRefuted is bounded evidence only"),
        "depth": args.depth,
        "tmax": args.tmax,
        "step": args.step,
        "candidates": verdict.candidates,
        "candidate_lattice": verdict.candidate_lattice,
        "candidates_truncated": verdict.candidates_truncated,
        "witness": _witness_dict(verdict.witness),
    })
    lines = [f"{verdict.outcome} (depth {args.depth}, tmax {args.tmax}, step {args.step})"]
    if verdict.candidates_truncated:
        lines.append(f"  fast lattice truncated: {verdict.candidates} of "
                     f"{verdict.candidate_lattice} schedulers searched")
    if verdict.witness:
        w = verdict.witness
        lines.append(f"  witness: word {w.word} at t={w.t:g}: "
                     f"fast {w.prob_fast:.6f} < slow {w.prob_slow:.6f}")
        lines.append(f"  adversary: {w.slow_scheduler!r}")
    else:
        lines.append("  (no counterexample within bounds; this does not prove the relation)")
    _emit(args, report, lines)
    return 1 if verdict.refuted else 0


def _cmd_simulates(args):
    left_path, right_path = _resolve_pair(args, "left", "right")
    rep = _Report("simulates", [left_path, right_path])
    left = _load_model(left_path)
    right = _load_model(right_path)
    res = simulates(left, right)
    report = rep.finish(result={"holds": res.holds, "pairs": [list(p) for p in res.pairs]})
    lines = [str(res.holds).lower()] + [f"  {a} <= {b}" for a, b in res.pairs]
    _emit(args, report, lines)
    return 0 if res.holds else 1


def _cmd_bisimilar(args):
    left_path, right_path = _resolve_pair(args, "left", "right")
    rep = _Report("bisimilar", [left_path, right_path])
    left = _load_model(left_path)
    right = _load_model(right_path)
    res = bisimilar(left, right)
    report = rep.finish(result={"holds": res.holds, "pairs": [list(p) for p in res.pairs]})
    lines = [str(res.holds).lower()] + [f"  {a} ~ {b}" for a, b in res.pairs]
    _emit(args, report, lines)
    return 0 if res.holds else 1


def _cmd_monotonicity(args):
    if args.mode == "strong" and args.n is not None:
        raise ValueError("--n sets the depth of --mode bounded; "
                         "strong mode checks paths up to the path bound")
    paths = [args.fast, args.slow, args.ctx] + ([args.ctx2] if args.ctx2 else [])
    rep = _Report("monotonicity", paths)
    u = _load_model(args.fast)
    v = _load_model(args.slow)
    w = _load_model(args.ctx)
    w2 = _load_model(args.ctx2) if args.ctx2 else w
    op = _OPS[args.op]
    if args.mode == "strong":
        report_obj = check_strong_monotonicity(u, v, w, w2, op, collect_all=args.all)
    else:
        n = args.n if args.n is not None else path_bound(u, v, w, w2)
        report_obj = check_monotonicity_bounded(u, v, w, w2, op, n, collect_all=args.all)
    if args.emit_smt:
        os.makedirs(args.emit_smt, exist_ok=True)
        written = _emit_smt_queries(u, v, w, w2, op, args.emit_smt)
    else:
        written = []
    report = rep.finish(result={
        "verdict": report_obj.verdict,
        "mode": report_obj.mode,
        "bound": report_obj.bound,
        "violations": [dataclasses.asdict(x) for x in report_obj.violations],
        "smt_queries": written,
    })
    lines = [f"{report_obj.verdict} ({report_obj.mode.lower()} mode, paths up to {report_obj.bound})"]
    lines += [f"  {x}" for x in report_obj.violations]
    _emit(args, report, lines)
    return 0 if report_obj.holds else 1


def _emit_smt_queries(u, v, w, w2, op, outdir):
    """One dominance query per composite residence pair, named by side."""
    written = []
    for i, (uu, ww) in enumerate((a, b) for a in u.states for b in w.states):
        comp = compose_residence(op, u.residence_of(uu), w.residence_of(ww))
        try:
            text = export_smt_dominance(comp, u.residence_of(uu))
        except NotExpressible:
            continue
        name = os.path.join(outdir, f"fast_{i:03d}_{uu}_{ww}.smt2")
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(name)
    for i, (vv, ww2) in enumerate((a, b) for a in v.states for b in w2.states):
        comp = compose_residence(op, v.residence_of(vv), w2.residence_of(ww2))
        try:
            text = export_smt_dominance(v.residence_of(vv), comp)
        except NotExpressible:
            continue
        name = os.path.join(outdir, f"slow_{i:03d}_{vv}_{ww2}.smt2")
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(name)
    return written


def _cmd_simulate(args):
    rep = _Report("simulate", [args.model] + ([args.scheduler] if args.scheduler else []))
    m = _load_model(args.model)
    sch = _load_scheduler(args.scheduler, m) if args.scheduler else uniform_scheduler(m)
    word = _parse_word(args.word, m.labels)
    est, half = estimate_cylinder(m, sch, word, args.t, args.samples, args.seed, workers=args.jobs)
    lo, hi = wilson_bounds(est, args.samples)
    report = rep.finish(result={"word": format_word(word), "t": args.t, "samples": args.samples,
                                "seed": args.seed, "workers": args.jobs, "estimate": est,
                                "ci99_halfwidth": half, "ci99_wilson": [lo, hi]})
    _emit(args, report, [f"{est:.6f} +- {half:.6f} (99% CI), Wilson [{lo:.6f}, {hi:.6f}]"])
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="smdpcheck",
                                description="Timing analysis of semi-Markov decision processes")
    p.add_argument("--version", action="version", version=f"smdpcheck {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("validate", help="check a model (and optionally a scheduler) file")
    sp.add_argument("model")
    sp.add_argument("--scheduler")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_validate)

    sp = sub.add_parser("prob", help="time-bounded cylinder probability")
    sp.add_argument("--model", required=True)
    sp.add_argument("--scheduler", help="defaults to the uniform scheduler")
    sp.add_argument("--word", required=True,
                    help="one character per label, or comma-separated labels")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--engine", choices=["paths", "inductive"], default="paths")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_prob)

    sp = sub.add_parser("compose", help="synchronous product of two models")
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.add_argument("--op", choices=sorted(_OPS), required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--project", action="store_true",
                    help="intersect label sets instead of requiring equality")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_compose)

    sp = sub.add_parser("faster-than", help="bounded faster-than check")
    sp.add_argument("models", nargs="*", help="FAST SLOW (alternative to --fast/--slow)")
    sp.add_argument("--fast")
    sp.add_argument("--slow")
    sp.add_argument("--depth", type=int, default=8)
    sp.add_argument("--step", type=float, default=0.25)
    sp.add_argument("--tmax", type=float, default=10.0)
    sp.add_argument("--tpoints", type=int, default=5)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_faster_than)

    sp = sub.add_parser("simulates", help="does the second model simulate the first?")
    sp.add_argument("models", nargs="*", help="LEFT RIGHT")
    sp.add_argument("--left")
    sp.add_argument("--right")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_simulates)

    sp = sub.add_parser("bisimilar", help="are the two models bisimilar?")
    sp.add_argument("models", nargs="*", help="LEFT RIGHT")
    sp.add_argument("--left")
    sp.add_argument("--right")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_bisimilar)

    sp = sub.add_parser("monotonicity", help="anomaly-avoidance conditions for a composition")
    sp.add_argument("--fast", required=True)
    sp.add_argument("--slow", required=True)
    sp.add_argument("--ctx", required=True)
    sp.add_argument("--ctx2", help="replacement context (defaults to --ctx)")
    sp.add_argument("--op", choices=sorted(_OPS), required=True)
    sp.add_argument("--mode", choices=["strong", "bounded"], default="strong")
    sp.add_argument("--n", type=int, help="depth for bounded mode only (default: the path bound)")
    sp.add_argument("--all", action="store_true", help="collect all violations, not just the first")
    sp.add_argument("--emit-smt", metavar="DIR", help="write CDF-dominance SMT queries")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_monotonicity)

    sp = sub.add_parser("simulate", help="Monte Carlo cylinder estimate")
    sp.add_argument("--model", required=True)
    sp.add_argument("--scheduler")
    sp.add_argument("--word", required=True,
                    help="one character per label, or comma-separated labels")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--samples", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--jobs", type=int, default=1,
                    help="number of seed streams; they run one after another in one process")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_simulate)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    # ValueError: an option value the library rejects, such as --t -1 or --n 0
    except (SmdpcheckError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
