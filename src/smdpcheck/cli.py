"""Command-line frontend.

Exit codes: 0 = verdict holds / value computed, 1 = refuted or failing
verdict (witness in the report), 2 = usage, model or I/O error, invalid
option values included.  Every command accepts --json for machine-readable
reports, in strict JSON: a non-finite float is the string "inf", "-inf" or
"nan".

Each command resolves its input files, which `main` hashes before the
command runs, and returns (result, human lines, exit code); `main` alone
builds the report, prints it and maps errors to exit code 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

from . import __version__
from .composition import compose
from .cylinders import TimeBoundedCylinder, prob_cylinder_inductive, prob_cylinder_paths
from .distributions import _GRID_POINTS, CompositionOperator, GridSpec, compose_residence
from .errors import NotExpressible, SmdpcheckError
from .model import (
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

# command -> (relation, the symbol a related pair prints with, help)
_RELATIONS = {"simulates": (simulates, "<=", "does the second model simulate the first?"),
              "bisimilar": (bisimilar, "~", "are the two models bisimilar?")}


def _strict(x):
    """x with each non-finite float as the string "inf", "-inf" or "nan",
    which RFC 8259 JSON has no numbers for."""
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    return [_strict(v) for v in x] if isinstance(x, (list, tuple)) else x


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _parse_word(text, labels):
    """Comma-separated if there is a comma or a multi-character label, else a label per character."""
    multi = "," in text or any(len(a) > 1 for a in labels)
    return tuple(text.split(",")) if multi else tuple(text)


def _load(path, model=None, problems=None):
    """Parses a model file, or with `model` a scheduler file for that model.

    Violations raise, or are appended to `problems` when a list is given.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if model is None:
        kind, obj = "model", parse_model(text)
        found = [str(p) for p in validate_model(obj)]
    else:
        kind, obj = "scheduler", parse_scheduler(text)
        found = [str(p) for p in validate_scheduler(model, obj)]
    if problems is not None:
        problems += found
    elif found:
        raise SmdpcheckError(f"{path}: invalid {kind}:\n  " + "\n  ".join(found))
    return obj


def _model_inputs(args):
    return [p for p in (args.model, args.scheduler) if p]


def _pair_inputs(flag_a, flag_b):
    """Two models, positionally or via --flag_a/--flag_b; sets both flags."""
    def inputs(args):
        pos = list(args.models)
        for flag in (flag_a, flag_b):
            if getattr(args, flag) is None and pos:
                setattr(args, flag, pos.pop(0))
        pair = [getattr(args, flag_a), getattr(args, flag_b)]
        if None in pair or pos:
            raise SmdpcheckError(f"expected two models (positionally or via --{flag_a}/--{flag_b})")
        return pair
    return inputs


def _monotonicity_inputs(args):
    if args.mode == "strong" and args.n is not None:
        raise ValueError("--n sets the depth of --mode bounded; "
                         "strong mode checks paths up to the path bound")
    return [p for p in (args.fast, args.slow, args.ctx, args.ctx2) if p]


# ---------------------------------------------------------------------------
# subcommands: each returns (result, human lines, exit code)


def _cmd_validate(args):
    problems = []
    m = _load(args.model, problems=problems)
    if args.scheduler and not problems:
        _load(args.scheduler, m, problems)
    ok = not problems
    return ({"valid": ok, "violations": problems},
            ["valid" if ok else "invalid:"] + [f"  {p}" for p in problems], 0 if ok else 2)


def _cmd_prob(args):
    m = _load(args.model)
    sch = _load(args.scheduler, m) if args.scheduler else uniform_scheduler(m)
    word = _parse_word(args.word, m.labels)
    engine = prob_cylinder_paths if args.engine == "paths" else prob_cylinder_inductive
    value = engine(m, sch, m.initial, TimeBoundedCylinder(word, args.t))
    return ({"word": format_word(word), "t": args.t, "engine": args.engine, "probability": value},
            [f"{value:.6f}"], 0)


def _cmd_compose(args):
    product = compose(_load(args.left), _load(args.right), args.op, project=args.project)
    text = serialize_model(product)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return ({"out": args.out, "states": len(product.states), "labels": list(product.labels)},
            [f"wrote {args.out} ({len(product.states)} states)"], 0)


def _cmd_faster_than(args):
    verdict = faster_than_bounded(_load(args.fast), _load(args.slow), args.depth,
                                  GridSpec(t_max=args.tmax, points=args.tpoints),
                                  SchedulerSearchSpec(step=args.step))
    w, proof = verdict.witness, verdict.proof
    claim = "proved for all depths and times by a state map"
    if proof and any(outcome == "HoldsOnGrid" for _, _, outcome in proof):
        claim += f", up to the {_GRID_POINTS}-point dominance grid on its HoldsOnGrid pairs"
    result = {
        "outcome": verdict.outcome,
        "meaning": (f"NotRefuted: {claim}, under which the fast model lumps onto the slow "
                    "one and each residence dominates its image's" if proof else
                    "Refuted: the witness re-verifies, and no fast scheduler in the explored "
                    "lattice plus coordinate ascent matched this adversary; "
                    "NotRefuted is bounded evidence only"),
        "depth": args.depth,
        "tmax": args.tmax,
        "tpoints": args.tpoints,
        "step": args.step,
        "candidates": verdict.candidates,
        "candidate_lattice": verdict.candidate_lattice,
        "candidates_truncated": verdict.candidates_truncated,
        "witness": None if w is None else {**vars(w), "slow_scheduler": w.slow_scheduler.choice,
                                           "fast_scheduler": w.fast_scheduler.choice},
        "proof": None if proof is None else [{"fast": s, "slow": t, "dominance": outcome}
                                             for s, t, outcome in proof],
    }
    lines = [f"{verdict.outcome} (depth {args.depth}, tmax {args.tmax}, "
             f"tpoints {args.tpoints}, step {args.step})"]
    if verdict.candidates_truncated:
        lines.append(f"  fast lattice truncated: {verdict.candidates} of "
                     f"{verdict.candidate_lattice} schedulers searched"
                     + (" (a search the proof skips)" if proof else ""))
    if w:
        lines.append(f"  witness: word {w.word} at t={w.t:g}: "
                     f"fast {w.prob_fast:.6f} < slow {w.prob_slow:.6f}")
        lines.append(f"  adversary: {w.slow_scheduler!r}")
    elif proof:
        lines.append(f"  ({claim})")
        lines += [f"  {s} -> {t} ({outcome})" for s, t, outcome in proof]
    else:
        lines.append("  (no counterexample within bounds; this does not prove the relation)")
    return result, lines, 1 if verdict.refuted else 0


def _cmd_relation(args):
    relation, symbol, _ = _RELATIONS[args.cmd]
    res = relation(_load(args.left), _load(args.right))
    return ({"holds": res.holds, "pairs": [list(p) for p in res.pairs]},
            [str(res.holds).lower()] + [f"  {a} {symbol} {b}" for a, b in res.pairs],
            0 if res.holds else 1)


def _cmd_monotonicity(args):
    u, v, w = _load(args.fast), _load(args.slow), _load(args.ctx)
    w2 = _load(args.ctx2) if args.ctx2 else w
    if args.mode == "strong":
        rep = check_strong_monotonicity(u, v, w, w2, args.op, collect_all=args.all)
    else:
        n = args.n if args.n is not None else path_bound(u, v, w, w2)
        rep = check_monotonicity_bounded(u, v, w, w2, args.op, n, collect_all=args.all)
    result = {
        "verdict": rep.verdict,
        "mode": rep.mode,
        "bound": rep.bound,
        "violations": [dataclasses.asdict(x) for x in rep.violations],
        "smt_queries": _emit_smt_queries(u, v, w, w2, args.op, args.emit_smt) if args.emit_smt else [],
    }
    lines = [f"{rep.verdict} ({rep.mode.lower()} mode, paths up to {rep.bound})"]
    return result, lines + [f"  {x}" for x in rep.violations], 0 if rep.holds else 1


def _emit_smt_queries(u, v, w, w2, op, outdir):
    """One dominance query per composite residence pair, named by side: the
    fast side's composite dominates its own law, the slow side's own law its composite."""
    os.makedirs(outdir, exist_ok=True)
    written = []
    for side, model, ctx in (("fast", u, w), ("slow", v, w2)):
        for i, (x, y) in enumerate((a, b) for a in model.states for b in ctx.states):
            own = model.residence_of(x)
            comp = compose_residence(op, own, ctx.residence_of(y))
            try:
                text = export_smt_dominance(*((comp, own) if side == "fast" else (own, comp)))
            except NotExpressible:
                continue
            name = os.path.join(outdir, f"{side}_{i:03d}_{x}_{y}.smt2")
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
            written.append(name)
    return written


def _cmd_simulate(args):
    m = _load(args.model)
    sch = _load(args.scheduler, m) if args.scheduler else uniform_scheduler(m)
    word = _parse_word(args.word, m.labels)
    est, half = estimate_cylinder(m, sch, word, args.t, args.samples, args.seed)
    lo, hi = wilson_bounds(est, args.samples)
    return ({"word": format_word(word), "t": args.t, "samples": args.samples, "seed": args.seed,
             "estimate": est, "ci99_halfwidth": half, "ci99_wilson": [lo, hi]},
            [f"{est:.6f} +- {half:.6f} (99% CI), Wilson [{lo:.6f}, {hi:.6f}]"], 0)


def build_parser():
    p = argparse.ArgumentParser(prog="smdpcheck",
                                description="Timing analysis of semi-Markov decision processes")
    p.add_argument("--version", action="version", version=f"smdpcheck {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("validate", help="check a model (and optionally a scheduler) file")
    sp.add_argument("model")
    sp.add_argument("--scheduler")
    sp.set_defaults(fn=_cmd_validate, inputs=_model_inputs)

    sp = sub.add_parser("prob", help="time-bounded cylinder probability")
    sp.add_argument("--model", required=True)
    sp.add_argument("--scheduler", help="defaults to the uniform scheduler")
    sp.add_argument("--word", required=True,
                    help="one character per label, or comma-separated labels")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--engine", choices=["paths", "inductive"], default="paths")
    sp.set_defaults(fn=_cmd_prob, inputs=_model_inputs)

    sp = sub.add_parser("compose", help="synchronous product of two models")
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.add_argument("--op", choices=sorted(CompositionOperator.ALL), required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--project", action="store_true",
                    help="intersect label sets instead of requiring equality")
    sp.set_defaults(fn=_cmd_compose, inputs=lambda args: [args.left, args.right])

    sp = sub.add_parser("faster-than", help="bounded faster-than check")
    sp.add_argument("models", nargs="*", help="FAST SLOW (alternative to --fast/--slow)")
    sp.add_argument("--fast")
    sp.add_argument("--slow")
    sp.add_argument("--depth", type=int, default=8)
    sp.add_argument("--step", type=float, default=0.25)
    sp.add_argument("--tmax", type=float, default=10.0)
    sp.add_argument("--tpoints", type=int, default=5)
    sp.set_defaults(fn=_cmd_faster_than, inputs=_pair_inputs("fast", "slow"))

    for name, (_, _, text) in _RELATIONS.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("models", nargs="*", help="LEFT RIGHT")
        sp.add_argument("--left")
        sp.add_argument("--right")
        sp.set_defaults(fn=_cmd_relation, inputs=_pair_inputs("left", "right"))

    sp = sub.add_parser("monotonicity", help="anomaly-avoidance conditions for a composition")
    sp.add_argument("--fast", required=True)
    sp.add_argument("--slow", required=True)
    sp.add_argument("--ctx", required=True)
    sp.add_argument("--ctx2", help="replacement context (defaults to --ctx)")
    sp.add_argument("--op", choices=sorted(CompositionOperator.ALL), required=True)
    sp.add_argument("--mode", choices=["strong", "bounded"], default="strong")
    sp.add_argument("--n", type=int, help="depth for bounded mode only (default: the path bound)")
    sp.add_argument("--all", action="store_true", help="collect all violations, not just the first")
    sp.add_argument("--emit-smt", metavar="DIR", help="write CDF-dominance SMT queries")
    sp.set_defaults(fn=_cmd_monotonicity, inputs=_monotonicity_inputs)

    sp = sub.add_parser("simulate", help="Monte Carlo cylinder estimate")
    sp.add_argument("--model", required=True)
    sp.add_argument("--scheduler")
    sp.add_argument("--word", required=True,
                    help="one character per label, or comma-separated labels")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--samples", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=42)
    sp.set_defaults(fn=_cmd_simulate, inputs=_model_inputs)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        # hashed before the command runs: compose --out may overwrite an input
        inputs = [{"path": p, "sha256": _sha256(p)} for p in args.inputs(args)]
        result, lines, code = args.fn(args)
    # ValueError: an option value the library rejects, such as --t -1 or --n 0;
    # OSError: a file that cannot be read or written, such as a directory
    except (SmdpcheckError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"schema": REPORT_SCHEMA, "command": args.cmd, "inputs": inputs,
                          "result": _strict(result), "elapsed_seconds": round(time.monotonic() - t0, 6)},
                         indent=2, allow_nan=False))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
