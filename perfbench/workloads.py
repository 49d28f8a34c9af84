"""The three seeded operation streams and their known-answer checks.

An op is one call a CLI command makes.  Ops on component models start by
parsing their generated text with `parse_model`; ops on a composite take the
model the instance's `compose` op returned, because composites with
non-exponential residences have no text form.  Instances are generated
lazily from (seed, index), so a stream never repeats within a run, and the
structural parameters (kind, states, depth, word length, context) cycle
deterministically with the index: the seed chooses rates, kernels and
residences, never the mix.  One cycle of the structure is a round; the
runner takes its timings from whole rounds, so every run times the same mix.  Checks run outside the timed region and map the
key of every op whose answer is wrong to the reason.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Tuple

import smdpcheck as api

import gen

PROB_ENGINE_TOL = 1e-5   # paths vs inductive, the README's cross-engine tolerance
WITNESS_TOL = 1e-9       # witness probabilities recomputed by the paths engine
MC_HALFWIDTHS = 2.0      # an estimate must lie within this many 99% half-widths,
MC_FLOOR = 1e-9          # plus this much for a reference that rounds off an exact 0 or 1
MC_SAMPLES = 1000        # the sampler's minimum; MinMaxCdf sojourns cost ~0.2 ms each
FT_SEARCH = api.SchedulerSearchSpec(step=0.5)  # CLI `faster-than --step 0.5`
CORPUS_ANOMALY_T = 2.0


@dataclass
class Op:
    key: str
    run: Callable[[Dict[str, object]], object]
    needs: Tuple[str, ...] = ()


@dataclass
class Instance:
    ident: str
    round: int
    ops: list
    check: Callable[[Dict[str, object]], Dict[str, str]]


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def _parse(*texts):
    return [api.parse_model(t) for t in texts]


def _witness_problem(fast, slow, verdict):
    """None when a Refuted witness re-verifies through the paths engine."""
    w = verdict.witness
    c = api.TimeBoundedCylinder(tuple(w.word), w.t)
    pf = api.prob_cylinder_paths(fast, w.fast_scheduler, fast.initial, c)
    ps = api.prob_cylinder_paths(slow, w.slow_scheduler, slow.initial, c)
    if abs(pf - w.prob_fast) > WITNESS_TOL or abs(ps - w.prob_slow) > WITNESS_TOL:
        return f"witness {w.word}@{w.t:g} recomputes to {pf!r}/{ps!r}, reported {w.prob_fast!r}/{w.prob_slow!r}"
    if not pf < ps - WITNESS_TOL:
        return f"witness {w.word}@{w.t:g} does not separate: {pf!r} vs {ps!r}"
    return None


def _ft_problem(kind, fast, slow, verdict):
    if kind == "holds" and verdict.outcome != "NotRefuted":
        return f"holds pair came back {verdict.outcome}"
    if kind == "reversed" and verdict.outcome != "Refuted":
        return f"reversed pair came back {verdict.outcome}"
    return _witness_problem(fast, slow, verdict) if verdict.refuted else None


def _ft_op(key, fast_text, slow_text, depth, search=None):
    def run(res):
        fast, slow = _parse(fast_text, slow_text)
        return api.faster_than_bounded(fast, slow, depth, search=search)
    return Op(key, run)


def _prob_op(key, engine, model_key, word, t, text=None):
    """`prob --engine paths|inductive` with the CLI's uniform scheduler."""
    fn = "prob_cylinder_paths" if engine == "paths" else "prob_cylinder_inductive"

    def run(res):
        m = api.parse_model(text) if text is not None else res[model_key]
        return getattr(api, fn)(m, api.uniform_scheduler(m), m.initial,
                                api.TimeBoundedCylinder(word, t))
    return Op(key, run, () if text is not None else (model_key,))


def _engines_problem(res, paths_key, ind_key):
    out = {}
    for key in (paths_key, ind_key):
        if key in res and not 0.0 <= res[key] <= 1.0:
            out[key] = f"probability {res[key]!r} outside [0, 1]"
    if paths_key in res and ind_key in res and abs(res[paths_key] - res[ind_key]) > PROB_ENGINE_TOL:
        out[ind_key] = (f"inductive {res[ind_key]!r} vs paths {res[paths_key]!r} "
                        f"differ by more than {PROB_ENGINE_TOL:g}")
    return out


# ---------------------------------------------------------------------------
# ft-sweep

# (states, depth), in cycle order.  Three-state pairs stop at depth 4: the
# adversary and candidate lattices have 27 points each there against 9 for
# two states, so a three-state "holds" op takes about 1.2 s at depth 5.  The
# cheap two-state shapes recur three times a cycle and (3, 4) twice: with more
# ops per run, and about a sixth of them in the slowest "holds" cluster, the
# median and the 90th percentile fall inside clusters, not in gaps.
FT_SHAPES = ((2, 3), (2, 4), (2, 5), (3, 4), (2, 3), (2, 4), (2, 5), (2, 6),
             (2, 3), (2, 4), (2, 5), (3, 3), (3, 4))


def ft_sweep(seed: int) -> Iterator[Instance]:
    for i in itertools.count():
        kind = gen.FT_KINDS[i % 3]
        n_states, depth = FT_SHAPES[(i // 3) % len(FT_SHAPES)]
        fast_text, slow_text = gen.ft_pair(_rng(seed, i), kind, n_states)

        def check(res, kind=kind, fast_text=fast_text, slow_text=slow_text):
            if "ft" not in res:
                return {}
            problem = _ft_problem(kind, *_parse(fast_text, slow_text), res["ft"])
            return {"ft": problem} if problem else {}

        yield Instance(f"ft-sweep/{i}/{kind}/n{n_states}/d{depth}", i // (3 * len(FT_SHAPES)),
                       [_ft_op("ft", fast_text, slow_text, depth, FT_SEARCH)], check)


# ---------------------------------------------------------------------------
# deep-paths


DEEP_ROUND = 30  # states cycle with period 5, lengths 3, depths 2, kinds 30


def deep_paths(seed: int) -> Iterator[Instance]:
    for i in itertools.count():
        rng = _rng(seed, i)
        n_states = 4 + i % 5
        # words of 8-12 letters (4096 state paths at 12) and faster-than at
        # depth 8-10: at 14 letters or depth 12 one op takes 0.2-0.5 s
        length = 8 + 2 * (i % 3)
        depth = 8 + 2 * (i % 2)
        kind = ("holds", "reversed")[(i // 15) % 2]
        text = gen.deep_model(rng, n_states)
        word = ("a",) * length
        t = length * gen.mean_residence(text)
        fast_text, slow_text = gen.deep_pair(rng, kind, 4 + (i + 2) % 5)
        ops = [_prob_op("paths", "paths", None, word, t, text),
               _prob_op("inductive", "inductive", None, word, t, text),
               _ft_op("ft", fast_text, slow_text, depth)]

        def check(res, kind=kind, fast_text=fast_text, slow_text=slow_text):
            out = _engines_problem(res, "paths", "inductive")
            if "ft" in res:
                problem = _ft_problem(kind, *_parse(fast_text, slow_text), res["ft"])
                if problem:
                    out["ft"] = problem
            return out

        yield Instance(f"deep-paths/{i}/n{n_states}/L{length}/{kind}/d{depth}", i // DEEP_ROUND,
                       ops, check)


# ---------------------------------------------------------------------------
# anomaly-audit

# (context file, operator, composite faster-than verdict, paths values of
# U⋆W and V⋆W at word "aa", t = 2, as `smdpcheck.reproduce` expects them)
CORPUS_CONTEXTS = (
    ("fig4_W_product.smdp", "prodrate", "Refuted", (0.0929, 0.3018)),
    ("fig4_W_minimum.smdp", "min", "Refuted", (0.3996, 0.5156)),
    ("fig4_W_maximum.smdp", "max", "Refuted", (0.7476, 0.9084)),
    ("fig4_W_congruent.smdp", "min", "NotRefuted", None),
)
CORPUS_PROB_TOL = 0.005  # the tolerance of those reproduce blocks
# Contexts are exponential or uniform.  A `min`/`max` composite with a Dirac
# part is a `MinMaxCdf` with an atom, which has no density: faster-than and
# both engines raise TypeError on it, so it cannot be a workload on which
# every op answers.  perfbench/known_defects.py reproduces that defect.
#
# (operator, context, word length): words over an exponential context have
# 1-3 letters.  Words over a uniform one have one letter: past one letter
# the inductive engine misses the paths engine by up to 2.5e-4 on `min`/`max`
# composites with uniform parts (also in known_defects.py), and every further
# non-exponential factor nests one more quadrature.  Faster-than on the
# composites still runs 2-letter words over them.  A round is one pass
# over these shapes.
AUDIT_SHAPES = (("min", "exp", 1), ("min", "uniform", 1), ("max", "exp", 2),
                ("max", "uniform", 1), ("prodrate", "exp", 3))


def _compose_op(key, left_text, ctx_text, op):
    def run(res):
        left, ctx = _parse(left_text, ctx_text)
        return api.compose(left, ctx, op)
    return Op(key, run)


def _audit_ops(u_text, v_text, w_text, w2_text, op, word, t, mc_seed):
    def composite_op(key, fn, *needs):
        return Op(key, lambda res: fn(*(res[k] for k in needs)), needs)

    def mono_op(key, fn, *extra):
        def run(res):
            u, v, w = _parse(u_text, v_text, w_text)
            return fn(u, v, w, w, op, *extra)
        return Op(key, run)

    def ctx_op(key, fn):
        return Op(key, lambda res: fn(*_parse(w_text, w2_text)))

    return [
        _compose_op("compose_uw", u_text, w_text, op),
        _compose_op("compose_vw", v_text, w_text, op),
        _prob_op("paths_uw", "paths", "compose_uw", word, t),
        _prob_op("inductive_uw", "inductive", "compose_uw", word, t),
        _prob_op("paths_vw", "paths", "compose_vw", word, t),
        _prob_op("inductive_vw", "inductive", "compose_vw", word, t),
        _ft_op("ft_components", u_text, v_text, 3),
        composite_op("ft_composites", lambda uw, vw: api.faster_than_bounded(uw, vw, 2),
                     "compose_uw", "compose_vw"),
        mono_op("strong", api.check_strong_monotonicity),
        mono_op("bounded", api.check_monotonicity_bounded, 3),
        composite_op("simulates_uv", api.simulates, "compose_uw", "compose_vw"),
        composite_op("simulates_vu", api.simulates, "compose_vw", "compose_uw"),
        composite_op("bisimilar_uv", api.bisimilar, "compose_uw", "compose_vw"),
        ctx_op("bisimilar_ctx", api.bisimilar),
        ctx_op("simulates_ctx", api.simulates),
        composite_op("estimate_uw", lambda m: api.estimate_cylinder(
            m, api.uniform_scheduler(m), word, t, MC_SAMPLES, mc_seed), "compose_uw"),
    ]


def _audit_check(res, u_text, v_text, w_text, op, word, t, corpus_expect=None, corpus_probs=None):
    out = _engines_problem(res, "paths_uw", "inductive_uw")
    out.update(_engines_problem(res, "paths_vw", "inductive_vw"))
    for key, left_text in (("compose_uw", u_text), ("compose_vw", v_text)):
        if key in res:
            left, ctx = _parse(left_text, w_text)
            m = res[key]
            if m.initial != api.composite_name(left.initial, ctx.initial) or any(
                    abs(sum(row.values()) - 1.0) > 1e-12 for row in m.transitions.values()):
                out[key] = "composite of two total one-label chains is not total"
    if "ft_components" in res:
        problem = _ft_problem("holds", *_parse(u_text, v_text), res["ft_components"])
        if problem:
            out["ft_components"] = problem
    ftc = res.get("ft_composites")
    if ftc is not None and ftc.refuted:
        problem = _witness_problem(res["compose_uw"], res["compose_vw"], ftc)
        if problem:
            out["ft_composites"] = problem
    strong = res.get("strong")
    if strong is not None and strong.holds:
        if ftc is not None and ftc.outcome != "NotRefuted":
            out["ft_composites"] = "strong monotonicity holds, yet the composites are Refuted"
        if "bounded" in res and not res["bounded"].holds:
            out["bounded"] = "strong monotonicity holds, yet bounded monotonicity fails"
    if "bisimilar_uv" in res and res["bisimilar_uv"].holds:
        for key in ("simulates_uv", "simulates_vu"):
            if key in res and not res[key].holds:
                out[key] = "bisimilar composites do not simulate each other"
    for key in ("bisimilar_ctx", "simulates_ctx"):
        if key in res and not res[key].holds:
            out[key] = "a context and its renamed copy are not related"
    if "estimate_uw" in res and "paths_uw" in res:
        est, half = res["estimate_uw"]
        ref = res["paths_uw"]
        if abs(est - ref) > MC_HALFWIDTHS * half + MC_FLOOR:
            out["estimate_uw"] = f"estimate {est!r} +- {half!r} misses {ref!r}"
    for key, want in zip(("paths_uw", "paths_vw"), corpus_probs or ()):
        if key in res and abs(res[key] - want) > CORPUS_PROB_TOL:
            out[key] = f"corpus value {res[key]!r}, expected {want} to {CORPUS_PROB_TOL}"
    if corpus_expect is not None and ftc is not None:
        if ftc.outcome != corpus_expect:
            out["ft_composites"] = f"corpus composite came back {ftc.outcome}, expected {corpus_expect}"
        elif ftc.refuted and (ftc.witness.word != "aa" or ftc.witness.t != CORPUS_ANOMALY_T):
            out["ft_composites"] = f"corpus witness at {ftc.witness.word}@{ftc.witness.t:g}, expected aa@2"
    return out


def anomaly_audit(seed: int, corpus_dir) -> Iterator[Instance]:
    """The four fig2/fig4 corpus pipelines as round 0, then seeded variants forever."""
    u_text = (corpus_dir / "fig2_U.smdp").read_text(encoding="utf-8")
    v_text = (corpus_dir / "fig2_V.smdp").read_text(encoding="utf-8")
    word = ("a", "a")
    for i, (ctx_file, op, expect, probs) in enumerate(CORPUS_CONTEXTS):
        w_text = (corpus_dir / ctx_file).read_text(encoding="utf-8")
        w2_text = gen.renamed_copy(_rng(seed, i), w_text)
        args = (u_text, v_text, w_text, op, word, CORPUS_ANOMALY_T)
        yield Instance(f"anomaly-audit/corpus/{ctx_file}/{op}", 0,
                       _audit_ops(u_text, v_text, w_text, w2_text, op, word, CORPUS_ANOMALY_T, seed + i),
                       lambda res, args=args, expect=expect, probs=probs: _audit_check(
                           res, *args, corpus_expect=expect, corpus_probs=probs))
    for i in itertools.count(len(CORPUS_CONTEXTS)):
        rng = _rng(seed, i)
        j = i - len(CORPUS_CONTEXTS)
        op, kind, length = AUDIT_SHAPES[j % len(AUDIT_SHAPES)]
        cu_text, cv_text = gen.audit_components(rng)
        w_text = gen.audit_context(rng, kind)
        w2_text = gen.renamed_copy(rng, w_text)
        word = ("a",) * length
        t = round(length * 0.5 * (gen.mean_residence(cu_text) + gen.mean_residence(w_text)), 6)
        args = (cu_text, cv_text, w_text, op, word, t)
        yield Instance(f"anomaly-audit/{i}/{op}/{kind}/L{length}", 1 + j // len(AUDIT_SHAPES),
                       _audit_ops(cu_text, cv_text, w_text, w2_text, op, word, t, seed + i),
                       lambda res, args=args: _audit_check(res, *args))


def streams(corpus_dir):
    return {
        "ft-sweep": ft_sweep,
        "deep-paths": deep_paths,
        "anomaly-audit": lambda seed: anomaly_audit(seed, corpus_dir),
    }
